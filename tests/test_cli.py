import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cylspec import timedomain
from cylspec.cli import _error_report, main
from cylspec.operator_model import fixture, spec_to_json
from cylspec.polynomial import MatrixPolynomial
from cylspec.resolvent import NearPoleError
from cylspec.stability import FIT_PERIODS, SLICES_PER_PERIOD
from cylspec.spectral import build_basis
from cylspec.timedomain import FieldOnCover, InstabilityError, PeriodizationError


def run(args):
    return main(args)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_check_passes_on_admissible_fixture(tmp_path):
    code = run(["check", "--fixture", "EX1", "--density", "17",
                "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(read(tmp_path / "check.json"))
    assert all(c["status"] == "pass" for c in doc["checks"].values())
    assert "manifest_hash" in doc


def test_check_flags_boundary_counterexample(tmp_path):
    code = run(["check", "--fixture", "CE-BDY", "--density", "17",
                "--out", str(tmp_path)])
    assert code == 2
    doc = json.loads(read(tmp_path / "check.json"))
    assert doc["checks"]["ii"]["status"] == "fail"
    witness = doc["checks"]["ii"]["witnesses"][0]
    assert witness["point"][1] == -1.0


def test_check_flags_flat_counterexample(tmp_path):
    code = run(["check", "--fixture", "CE-FLAT", "--density", "17",
                "--out", str(tmp_path)])
    assert code == 2
    doc = json.loads(read(tmp_path / "check.json"))
    assert doc["checks"]["iii"]["status"] == "fail"
    assert doc["checks"]["ii"]["status"] == "pass"


def test_check_unverifiable_without_certificate(tmp_path):
    doc = spec_to_json(fixture("EX1"))
    del doc["certificate"]
    cfg = tmp_path / "bare.json"
    cfg.write_text(json.dumps(doc))
    code = run(["check", "--config", str(cfg), "--density", "9",
                "--out", str(tmp_path / "out")])
    assert code == 3


def test_spectrum_csv_rows(tmp_path):
    code = run(["spectrum", "--fixture", "EX1", "--qmax", "4", "--m", "32",
                "--re-min", "-2.2", "--out", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "spectrum.csv").strip().splitlines()
    assert lines[1] == "re,im,order,rank,residual"
    assert len(lines) == 2 + 5  # manifest comment + header + five poles
    # the window ends at EX1's energy threshold z* = 0.75
    assert json.loads(read(tmp_path / "poles.json"))["window"] == {"re_min": -2.2, "re_max": 0.75}


def test_codim_summary(tmp_path, capsys):
    code = run(["codim", "--fixture", "EX1S", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "|Λ|=2" in out and "rank F=2" in out
    assert "z★=1.5," in out and "z★★=0.75" in out and "z★★★=-0.25" in out
    doc = json.loads(read(tmp_path / "codim.json"))
    assert doc["rank_F"] == 2 and doc["n_nonneg"] == 2
    # the window's right edge is EX1S's energy threshold, and codim.json names it
    assert abs(doc["z_star"] - 1.5) < 1e-12 and doc["window"]["re_max"] == doc["z_star"]


def test_codim_with_energy_threshold_left_of_re_min(tmp_path, capsys):
    # EX1 shifted by +3 has z* = -2.25, left of the default --re-min: the window is
    # empty, which is an error; an --re-min left of z* finds its pole -3
    cfg = tmp_path / "ex1p3.json"
    cfg.write_text(json.dumps(spec_to_json(fixture("EX1").shifted(3.0))))
    assert run(["codim", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 1
    error = json.loads(read(tmp_path / "empty" / "error.json"))["error"]
    assert error["type"] == "SpecError" and "not left of the energy threshold" in error["message"]
    assert run(["codim", "--config", str(cfg), "--re-min", "-3.2",
                "--out", str(tmp_path / "out")]) == 0
    assert "|Λ|=0, rank F=0, z★=-2.25, z★★=-3," in capsys.readouterr().out
    doc = json.loads(read(tmp_path / "out" / "codim.json"))
    assert doc["n_nonneg"] == 0 and len(doc["poles"]) == 1 and abs(doc["z_star"] + 2.25) < 1e-12


@pytest.mark.parametrize("re_min", ["nan", "inf", "-inf"])
def test_re_min_must_be_finite(tmp_path, capsys, re_min):
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--fixture", "EX1", f"--re-min={re_min}", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --re-min: must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path.name}: {name} is not JSON")
    return json.loads(read(path), parse_constant=refuse)


def test_json_outputs_are_strict(tmp_path):
    # EX1 shifted by +2.5 has no pole in (-2.2, z* = -1.75): z** and z*** are
    # -inf, written as null; every JSON file parses without NaN or Infinity
    cfg = tmp_path / "ex1p25.json"
    cfg.write_text(json.dumps(spec_to_json(fixture("EX1").shifted(2.5))))
    for command in ("green", "codim", "spectrum"):
        out = tmp_path / command
        assert run([command, "--config", str(cfg), "--qmax", "4", "--m", "16",
                    "--out", str(out)]) == 0
        docs = {p.name: _strict_json(p) for p in out.glob("*.json")}
        assert "manifest.json" in docs and len(docs) == 2
        doc = docs[{"green": "green.json", "codim": "codim.json",
                    "spectrum": "poles.json"}[command]]
        assert doc["z_star_star"] is None and doc["z_star_star_star"] is None
    assert _strict_json(tmp_path / "green" / "green.json")["rank_F"] == 0


def test_green_artifacts(tmp_path):
    code = run(["green", "--fixture", "EX1S", "--qmax", "16", "--m", "32",
                "--svg", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(read(tmp_path / "green.json"))
    assert abs(doc["fitted_rate"] + 0.25) < 0.025
    assert doc["rank_F"] == 2 and abs(doc["z_star"] - 1.5) < 1e-12
    # the default bump's content beyond the band leaves a few percent in u_ret - F f
    assert 0 <= doc["identity_defect"] < 0.1
    csv = read(tmp_path / "decay.csv")
    assert csv.startswith("# manifest: ")
    # used_in_fit marks the fit window: exactly the trailing FIT_PERIODS periods
    used = [row.split(",")[3] for row in csv.splitlines()[2:]]
    fit = FIT_PERIODS * SLICES_PER_PERIOD + 1
    assert used == ["0"] * (len(used) - fit) + ["1"] * fit
    assert (tmp_path / "retarded.bin").exists()
    svg = read(tmp_path / "decay.svg")
    assert svg.startswith("<!-- manifest: ") and "<svg" in svg


def test_evolve_artifacts(tmp_path):
    code = run(["evolve", "--fixture", "EX1", "--m", "24", "--periods", "10",
                "--lmax", "1", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(read(tmp_path / "evolve.json"))
    assert abs(doc["growth_rate"]) < 0.05 and doc["modal"]
    header = read(tmp_path / "energy.csv").splitlines()[1]
    assert header == "x0,E0,E1"


def test_evolve_shift_reaches_growth_rate(tmp_path):
    # EX1's leading pole is 0, so the operator shifted by s decays at rate -s
    for shift in (0.5, 1.0):
        out = tmp_path / str(shift)
        code = run(["evolve", "--fixture", "EX1", "--m", "8", "--shift", str(shift),
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(read(out / "evolve.json"))
        assert abs(doc["growth_rate"] + shift) < 1e-6


@pytest.mark.parametrize("m, lmax", [(2, 2), (4, 2), (4, 0), (2, 4), (8, 2)])
def test_evolve_stores_the_slices_energy_series_needs(tmp_path, m, lmax):
    # energy_series needs no more than the stored slices: one period at small --m
    # stores only a few, and energy.csv has a finite row of every order at each
    code = run(["evolve", "--fixture", "EX1", "--m", str(m), "--periods", "1",
                "--lmax", str(lmax), "--out", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "energy.csv").splitlines()
    assert lines[1] == ",".join(["x0"] + [f"E{ell}" for ell in range(lmax + 1)])
    stored = FieldOnCover.load(str(tmp_path / "field.bin"), build_basis(0, m)).times
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    assert len(rows) == len(stored)
    assert all(len(row) == lmax + 2 and all(map(math.isfinite, row)) for row in rows)


def test_evolve_builds_one_generator_for_every_energy_order(tmp_path, monkeypatch):
    # the run, the energies and the growth report each build L once, whatever --lmax
    counts = []
    build = timedomain._generator
    for lmax in (0, 4):
        calls = []
        monkeypatch.setattr(timedomain, "_generator", lambda *a: calls.append(a) or build(*a))
        assert run(["evolve", "--fixture", "EX1", "--m", "4", "--periods", "1",
                    "--lmax", str(lmax), "--out", str(tmp_path / str(lmax))]) == 0
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts == [3, 3]


def test_compare_passes(tmp_path):
    code = run(["compare", "--fixture", "EX1", "--qmax", "16", "--m", "32",
                "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(read(tmp_path / "compare.json"))
    assert doc["deltas"]["evolve_vs_retarded"] <= 1e-3
    assert doc["deltas"]["periodize_vs_solve"] <= 1e-5


def test_compare_default_bump_on_ex1s_passes_at_qmax_24(tmp_path):
    # the default bump's band tail puts evolve_vs_retarded over 1e-3 at --qmax 16
    # on EX1S; 24 modes resolve it
    code = run(["compare", "--fixture", "EX1S", "--qmax", "24", "--m", "32",
                "--out", str(tmp_path)])
    assert code == 0
    assert json.loads(read(tmp_path / "compare.json"))["deltas"]["evolve_vs_retarded"] <= 1e-3


def test_compare_builds_one_working_pencil(tmp_path, monkeypatch):
    # the pole search's pencil serves the segment and the periodize reference solve;
    # the persistence test's doubled pencil is the only other one
    from cylspec import resolvent, spectral, stability

    built = []
    build = spectral.mode_operator_parts

    def counted(spec, basis):
        built.append((basis.Q_max, basis.M))
        return build(spec, basis)

    for module in (spectral, resolvent, stability):
        monkeypatch.setattr(module, "mode_operator_parts", counted)
    pulse = tmp_path / "pulse.json"
    pulse.write_text(json.dumps({"time_gaussian": {"center": 3 * math.pi, "sigma": 0.7}}))
    code = run(["compare", "--fixture", "EX1S", "--qmax", "16", "--m", "32",
                "--forcing", str(pulse), "--out", str(tmp_path / "out")])
    assert code == 0
    assert sorted(built) == [(16, 32), (18, 64)]


# d0 - 0.5 x1 d1: the drift points inward at both ends, so outflow (ii) fails; its
# energy threshold z* is 0.25, and its poles p/2 from 0.5 on lie right of it
INFLOW = {"n": 1, "N": 1, "B": [], "A": [[{"alpha": [0, 0], "matrix": [[[1.0, 0.0]]]}],
                                        [{"alpha": [0, 1], "matrix": [[[-0.5, 0.0]]]}]]}


@pytest.fixture
def inflow_config(tmp_path):
    cfg = tmp_path / "inflow.json"
    cfg.write_text(json.dumps(INFLOW))
    return str(cfg)


@pytest.mark.parametrize("command", ["spectrum", "codim", "green", "compare"])
@pytest.mark.parametrize("q_max, m", [(4, 16), (4, 32), (16, 32)])
def test_pole_right_of_energy_threshold_stops_the_run(tmp_path, inflow_config, command,
                                                      q_max, m):
    out = tmp_path / "out"
    assert run([command, "--config", inflow_config, "--qmax", str(q_max), "--m", str(m),
                "--out", str(out)]) == 1
    error = json.loads(read(out / "error.json"))["error"]
    assert error["type"] == "PolesRightOfWindowError"
    assert "right of the pole window (Re z > 0.25)" in error["message"]
    assert error["message"].count("(0.5+0j)") == 1
    # the diagnostics: the edge, and each strip pole once as an [re, im] pair
    assert error["edge"] == 0.25
    assert len(error["eigenvalues"]) == error["message"].count("+0j)")
    assert sum(abs(re - 0.5) <= 1e-6 and abs(im) <= 1e-6
               for re, im in error["eigenvalues"]) == 1
    assert not (out / "manifest.json").exists()


def test_error_report_carries_diagnostics():
    exc = NearPoleError(0.5 + 1e-9j, 0.5 + 0j, 3e-4)
    assert _error_report(exc) == {"type": "NearPoleError", "message": str(exc),
                                  "z": [0.5, 1e-9], "nearest": [0.5, 0.0],
                                  "distance": abs(1e-9j), "residual": 3e-4}
    assert _error_report(NearPoleError(1j, None, 2.0))["nearest"] is None
    diverged = _error_report(InstabilityError(2.5, 1, math.inf, 40.0))
    assert {k: diverged[k] for k in ("time", "column", "norm", "cap")} == \
        {"time": 2.5, "column": 1, "norm": math.inf, "cap": 40.0}
    assert _error_report(ValueError("plain")) == {"type": "ValueError", "message": "plain"}


def test_error_report_carries_periodization_diagnostics():
    exc = PeriodizationError(-0.5 + 0j, 4.0e16)
    assert "-0.5" in str(exc) and "4e+16" in str(exc)
    assert _error_report(exc) == {"type": "PeriodizationError", "message": str(exc),
                                  "z": [-0.5, 0.0], "condition": 4.0e16}


@pytest.mark.parametrize("command, center", [("green", 1000), ("green", 4000),
                                             ("green", 1e300), ("compare", 1000)])
def test_forcing_far_from_cover_time_zero_rejected(tmp_path, command, center):
    # green once gave NaN defects with exit 0, a NearPoleError and a TypeError at
    # these centers, and compare a NaN delta reported as a failed comparison
    forcing = tmp_path / "far.json"
    forcing.write_text(json.dumps({"time_bump": {"center": center, "width": 3.14}}))
    out = tmp_path / "out"
    assert run([command, "--fixture", "EX1S", "--qmax", "4", "--m", "16",
                "--forcing", str(forcing), "--out", str(out)]) == 1
    error = json.loads(read(out / "error.json"))["error"]
    assert error["type"] == "SpecError"
    assert error["message"].startswith(f"forcing center {center:.6g} is too far")


def test_numeric_failure_emits_error_json(tmp_path, inflow_config):
    # failures inside the command, after --out exists, and one while loading; the
    # inflow spec has persistent poles right of its energy threshold, EX1's z* is
    # 0.75, and a forcing coefficient must be finite
    right_of_window = "strip poles lie right of the pole window (Re z > 0.25)"
    nan_forcing = tmp_path / "nan.json"
    nan_forcing.write_text(json.dumps({"time_bump": {"center": 9.4, "width": 3.1}, "space": {
        "type": "polynomial", "coeffs": [math.nan, 1]}}))
    cases = (
        (["green", "--fixture", "EX2"], "SpecError", "n=1 only"),
        (["green", "--fixture", "EX1", "--qmax", "4", "--m", "16", "--forcing", str(nan_forcing)],
         "SpecError", "forcing coeffs must be a finite number"),
        (["spectrum", "--fixture", "EX1", "--re-min", "0.75"], "SpecError", "z* = 0.75"),
        (["spectrum", "--fixture", "EX1", "--re-min", "5"], "SpecError", "z* = 0.75"),
        (["green", "--config", inflow_config, "--qmax", "4", "--m", "16"],
         "PolesRightOfWindowError", right_of_window),
        (["codim", "--config", inflow_config, "--qmax", "4", "--m", "16"],
         "PolesRightOfWindowError", right_of_window),
        (["spectrum", "--config", str(tmp_path / "missing.json")],
         "FileNotFoundError", "missing.json"),
    )
    for k, (args, kind, message) in enumerate(cases):
        out = tmp_path / str(k)
        assert run(args + ["--out", str(out)]) == 1
        doc = json.loads(read(out / "error.json"))
        assert doc["error"]["type"] == kind and message in doc["error"]["message"]
        assert len(doc["manifest_hash"]) == 16
        assert not (out / "manifest.json").exists()


# every subcommand at a small basis
SMALL_RUNS = (
    ["check", "--fixture", "EX1", "--density", "9"],
    ["spectrum", "--fixture", "EX1", "--qmax", "4", "--m", "16"],
    ["codim", "--fixture", "EX1S", "--qmax", "4", "--m", "16"],
    ["green", "--fixture", "EX1S", "--qmax", "4", "--m", "16", "--svg"],
    ["evolve", "--fixture", "EX1", "--m", "8"],
    ["compare", "--fixture", "EX1", "--qmax", "4", "--m", "16"],
)


def test_determinism_bit_identical(tmp_path):
    # two runs write the same bytes, and --out holds the manifest and what it lists
    for args in SMALL_RUNS:
        out1, out2 = tmp_path / args[0] / "a", tmp_path / args[0] / "b"
        codes = [run(args + ["--out", str(out)]) for out in (out1, out2)]
        assert codes[0] == codes[1]
        manifest = json.loads(read(out1 / "manifest.json"))
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(manifest["outputs"] + ["manifest.json"])
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_cells_are_numbers(tmp_path):
    for args in (SMALL_RUNS[3], SMALL_RUNS[4]):
        out = tmp_path / args[0]
        assert run(args + ["--out", str(out)]) == 0
        for path in out.glob("*.csv"):
            comment, header, *rows = read(path).splitlines()
            assert comment.startswith("# manifest: ") and rows
            for row in rows:
                cells = row.split(",")
                assert len(cells) == len(header.split(","))
                for cell in cells:
                    float(cell)


def test_manifest_hash_covers_every_parameter(tmp_path):
    # runs that differ only in --re-min write different outputs, so different hashes
    outputs = {}
    for re_min in ("-1.2", "-0.3"):
        out = tmp_path / re_min
        assert run(["spectrum", "--fixture", "EX1", "--qmax", "0", "--m", "2",
                    "--re-min", re_min, "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        outputs[manifest["hash"]] = read(out / "spectrum.csv")
    assert len(outputs) == 2
    assert len(set(outputs.values())) == 2


def test_manifest_hash_covers_blas_threads(tmp_path, monkeypatch):
    # the last bits of the outputs depend on the BLAS thread count, so its setting is hashed
    hashes = set()
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / threads
        assert run(["spectrum", "--fixture", "EX1", "--qmax", "0", "--m", "2",
                    "--re-min", "-1.2", "--out", str(out)]) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["threads"]["OPENBLAS_NUM_THREADS"] == threads
        assert manifest["threads"]["cpus"] >= 1
        hashes.add(manifest["hash"])
    assert len(hashes) == 2


def test_config_round_trip_through_cli(tmp_path):
    cfg = tmp_path / "op.json"
    cfg.write_text(json.dumps(spec_to_json(fixture("EX1"))))
    code = run(["spectrum", "--config", str(cfg), "--qmax", "0", "--m", "2",
                "--re-min", "-1.2", "--out", str(tmp_path / "out")])
    assert code == 0


def test_kappa_override(tmp_path):
    # EX1 with B = 0.5 x1^2: condition (iv) fails at K = 1 against the weight kappa
    spec = dataclasses.replace(fixture("EX1"), B=MatrixPolynomial(2, (1, 1), {(0, 2): [[0.5]]}))
    cfg = tmp_path / "op.json"
    cfg.write_text(json.dumps(spec_to_json(spec)))
    witnesses = {}
    for kappa in ("0.024", "1"):
        out = tmp_path / kappa
        assert run(["check", "--config", str(cfg), "--kappa", kappa, "--density", "17",
                    "--out", str(out)]) == 2
        doc = json.loads(read(out / "check.json"))
        witnesses[kappa] = next(w for w in doc["checks"]["iv"]["witnesses"] if w["K"] == 1)
    assert witnesses["0.024"]["bound"] == 0.024
    assert abs(witnesses["0.024"]["sum"] - 0.0344) < 1e-4
    assert witnesses["1"]["bound"] == 1.0
    assert abs(witnesses["1"]["sum"] - 2.2802) < 1e-4


def test_manifest_hash_covers_file_contents(tmp_path):
    # same paths, rewritten contents: the config and the forcing each change the hash
    cfg, forcing = tmp_path / "op.json", tmp_path / "forcing.json"

    def hashes(cfg_spec, center):
        cfg.write_text(json.dumps(spec_to_json(fixture(cfg_spec))))
        forcing.write_text(json.dumps({"time_bump": {"center": center, "width": 3.0}}))
        out = {}
        for args in (["check", "--config", str(cfg), "--density", "8"],
                     ["green", "--fixture", "EX1", "--qmax", "1", "--m", "4",
                      "--forcing", str(forcing)]):
            assert run(args + ["--out", str(tmp_path / "out")]) == 0
            out[args[0]] = json.loads(read(tmp_path / "out" / "manifest.json"))["hash"]
        return out

    base = hashes("EX1", 9.0)
    assert hashes("EX1", 9.0) == base
    config_changed = hashes("EX1S", 9.0)
    assert config_changed["check"] != base["check"]
    assert config_changed["green"] == base["green"]
    forcing_changed = hashes("EX1", 10.0)
    assert forcing_changed["green"] != base["green"]
    assert forcing_changed["check"] == base["check"]


# flags each subcommand does not read, so does not accept; the pole window's right
# edge is the energy threshold z*, so no subcommand takes --re-max
UNREAD_FLAGS = {
    "check": ("--qmax", "--m", "--re-min", "--re-max", "--contour-nodes", "--lmax", "--seed"),
    "spectrum": ("--lmax", "--seed", "--contour-nodes", "--kappa", "--re-max"),
    "green": ("--contour-nodes", "--lmax", "--seed", "--kappa", "--re-max"),
    "codim": ("--contour-nodes", "--lmax", "--seed", "--kappa", "--re-max"),
    "compare": ("--contour-nodes", "--lmax", "--seed", "--kappa", "--re-max"),
    "evolve": ("--re-min", "--re-max", "--contour-nodes", "--qmax", "--kappa"),
}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in UNREAD_FLAGS.items()
                                          for f in flags])
def test_unread_flag_rejected(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        run([command, "--fixture", "EX1", flag, "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value", [("--lmax", "-1"), ("--periods", "0"),
                                        ("--periods", "-3"), ("--periods", "two"),
                                        ("--shift", "nan"), ("--shift", "inf")])
def test_evolve_rejects_unusable_counts(tmp_path, capsys, flag, value):
    # no energy order below 0, no run shorter than a period and no non-finite
    # shift: usage errors, not a failed run with error.json
    with pytest.raises(SystemExit) as exc:
        run(["evolve", "--fixture", "EX1", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--density", "0"), ("check", "--density", "-4"),
    ("spectrum", "--qmax", "-1"), ("spectrum", "--m", "1"), ("codim", "--m", "0"),
    ("green", "--qmax", "-2"), ("compare", "--m", "1"), ("evolve", "--m", "1"),
])
def test_grid_sizes_below_their_minimum_are_usage_errors(tmp_path, capsys, command, flag,
                                                        value):
    # --density -4 once failed in numpy's linspace and --density 0 sampled 3 points per
    # slice with exit 0; --qmax -1 and --m 1 failed in build_basis
    with pytest.raises(SystemExit) as exc:
        run([command, "--fixture", "EX1", flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["spectrum", "codim", "green", "compare", "evolve"])
def test_non_positive_a0_is_a_spec_error(tmp_path, command):
    # A0 = -1: scipy's eigh in the energy threshold raised an untyped LinAlgError, and
    # evolve stepped it, overflowing field.bin, and exited 0
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"n": 1, "N": 1, "B": [],
                               "A": [[{"alpha": [0, 0], "matrix": [[[-1.0, 0.0]]]}],
                                     [{"alpha": [0, 1], "matrix": [[[0.5, 0.0]]]}]]}))
    out = tmp_path / "out"
    grid = ["--m", "4"] if command == "evolve" else ["--qmax", "1", "--m", "4"]
    assert run([command, "--config", str(cfg), *grid, "--out", str(out)]) == 1
    error = json.loads(read(out / "error.json"))["error"]
    assert error["type"] == "SpecError"
    assert error["message"] == ("condition (i) fails: A0 is not positive definite at the "
                                "sample point [0.0, -1.0], smallest eigenvalue -1")
    assert not (out / "manifest.json").exists()


# run in a fresh interpreter: checking admissibility, the constants of a 1x1 spec
# and an N = 1 evolve take no scipy routine, so they must not load scipy.linalg;
# the pole search still does, and finds EX1's five poles
_SCIPY_PROBE = """
import sys
import cylspec, cylspec.cli
from cylspec.operator_model import FIXTURE_NAMES, check_assumptions, fixture, stability_constants
from cylspec.resolvent import find_poles
for name in FIXTURE_NAMES:
    check_assumptions(fixture(name))
for name in ("EX1", "EX1S"):
    stability_constants(fixture(name))
assert cylspec.cli.main(["evolve", "--fixture", "EX1", "--m", "8", "--out", sys.argv[1]]) == 0
assert "scipy.linalg" not in sys.modules, "scipy.linalg loaded"
poles = find_poles(fixture("EX1"), cylspec.build_basis(4, 32), window=(-2.2, 0.75)).poles
assert len(poles) == 5, poles
"""


def test_admissibility_and_evolve_leave_scipy_unloaded(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
