import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gmwalk import cli, spectral, walkdist
from gmwalk.errors import ValidationError

TRINOMIAL_RATIO = """
[system]
alphabet = 3
order = 0
weights = 1/3 1/3 1/3
mode = rational

[cocycle]
group = lattice 1
values = -1; 0; 1
involution = 2 1 0

[experiment]
kind = ratio
g = 0
n_grid = 4 8 16

[output]
dir = out
"""

SIMPLE_WALK_SCAN = """
[system]
alphabet = 2
order = 0
weights = 1/2 1/2

[cocycle]
group = lattice 1
values = 1; -1

[experiment]
kind = spectral-scan
resolution = 32
epsilon = 0.1
"""


def test_parse_minimal_config_applies_defaults():
    cfg = cli.parse_config(TRINOMIAL_RATIO)
    assert cfg.kind == "ratio"
    assert cfg.mode == "rational"
    assert cfg.params["g"] == (0,)
    assert cfg.params["n_grid"] == [4, 8, 16]
    assert cfg.echo["experiment.kind"] == "ratio"


def test_parse_collects_all_errors():
    bad = """
[system]
alphabet = 3
order = 0
weights = 1/2 1/2
mode = sometimes

[cocycle]
group = lattice 1
values = -1; 1

[experiment]
kind = stone
e = -1 1
a_box = -2 2
n = 10
"""
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(bad)
    msgs = "\n".join(exc.value.errors)
    assert "3 entries" in msgs or "not total" in msgs
    assert "mode" in msgs
    assert "embedded real lattice" in msgs
    assert len(exc.value.errors) >= 3


def test_parse_unknown_keys_and_kind():
    bad = """
[system]
alphabet = 2
order = 0
weights = 1/2 1/2
typo = 3

[cocycle]
group = lattice 1
values = 1; -1

[experiment]
kind = frobnicate
"""
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(bad)
    msgs = "\n".join(exc.value.errors)
    assert "unknown key" in msgs
    assert "unknown experiment kind" in msgs


def test_parse_names_each_bad_key_and_keeps_going():
    cfg = TRINOMIAL_RATIO.replace("kind = ratio\ng = 0\nn_grid = 4 8 16",
                                  "kind = cross-ratio\nn = abc")
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(cfg)
    msgs = exc.value.errors
    assert any("'n'" in e and "abc" in e for e in msgs)
    assert any("requires 'g'" in e for e in msgs)


def test_oracle_compare_refuses_n_max_above_cap(tmp_path):
    cfg = TRINOMIAL_RATIO.replace("kind = ratio\ng = 0\nn_grid = 4 8 16",
                                  "kind = oracle-compare\nn_max = 12")
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(cfg)
    assert any("'n_max' up to 10" in e for e in exc.value.errors)
    code = cli.main(["oracle-compare", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert cli.parse_config(cfg.replace("n_max = 12", "n_max = 10")).params["n_max"] == 10


def test_experiment_keys_come_from_the_registry():
    assert cli.KINDS == tuple(cli.EXPERIMENTS)
    assert cli._KNOWN_KEYS["experiment"] == {
        "kind", "g", "n", "n_grid", "n_max", "n0", "n1", "stride", "e", "a_box",
        "f_box", "eta", "resolution", "epsilon", "grid", "k_max", "variant",
        "base", "cylinder", "max_cells",
    }
    assert set(cli._PARAM_PARSERS) == cli._KNOWN_KEYS["experiment"] - {"kind"}


def test_readme_kind_table_and_shipped_configs():
    repo = Path(__file__).resolve().parents[1]
    readme = (repo / "README.md").read_text()
    listed = re.findall(r"^\| `([a-z-]+)` \|", readme, re.M)
    assert listed == list(cli.KINDS)
    configs = sorted((repo / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        assert cli.parse_config(path.read_text()).kind in cli.KINDS


def test_key_the_kind_does_not_read_is_a_config_error(tmp_path, capsys):
    cfg = TRINOMIAL_RATIO.replace("kind = ratio\ng = 0\nn_grid = 4 8 16",
                                  "kind = local-limit\ng = 1\nn_grid = 20 40\nmax_cells = 10")
    code = cli.main(["local-limit", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "does not read 'max_cells'" in capsys.readouterr().err
    readers = {k for k, e in cli.EXPERIMENTS.items() if "max_cells" in e.reads}
    assert readers == {"ratio", "cross-ratio", "stone", "window", "conditions", "pressure",
                       "kesten", "fekete"}
    # a variant reads only its own keys
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(TRINOMIAL_RATIO.replace(
            "kind = ratio\ng = 0\nn_grid = 4 8 16",
            "kind = conditions\nvariant = D\ng = 0\nn0 = 1\nn1 = 2\nn = 9\ncylinder = 0"))
    assert exc.value.errors == ["experiment kind 'conditions' does not read 'cylinder'"]


def test_subcommand_kind_conflict():
    with pytest.raises(ValidationError) as exc:
        cli.parse_config(TRINOMIAL_RATIO, kind_override="stone")
    assert any("conflicts" in e for e in exc.value.errors)


def test_ratio_run_writes_artifacts(tmp_path):
    code = cli.main(["ratio", "--config", _write(tmp_path, TRINOMIAL_RATIO),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    csv = (tmp_path / "out" / "ratio.csv").read_text()
    assert csv.splitlines()[0] == "n,statistic,value,target,deviation"
    assert len(csv.splitlines()) == 4
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "run.exit_code = 0" in manifest
    assert "system.mode = rational" in manifest


def test_ratio_manifest_lists_the_zero_masses(tmp_path):
    # the 1/100 walk: mu^800(0) underflows to 0.0 in float mode, so n = 800 has
    # no CSV row and is named in result.zero_ns
    cfg = TRINOMIAL_RATIO.replace("alphabet = 3", "alphabet = 2").replace(
        "weights = 1/3 1/3 1/3\nmode = rational", "weights = 1/100 99/100\nmode = float").replace(
        "values = -1; 0; 1\ninvolution = 2 1 0", "values = 1; -1").replace(
        "n_grid = 4 8 16", "n_grid = 100 400 800\nstride = 2")
    code = cli.main(["ratio", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "a")])
    assert code == 0
    assert [r.split(",")[0] for r in
            (tmp_path / "a" / "ratio.csv").read_text().splitlines()[1:]] == ["100", "400"]
    assert "result.zero_ns = 800\n" in (tmp_path / "a" / "manifest.txt").read_text()
    cli.main(["ratio", "--config", _write(tmp_path, TRINOMIAL_RATIO),
              "--out", str(tmp_path / "b")])
    assert "result.zero_ns = \n" in (tmp_path / "b" / "manifest.txt").read_text()


def test_rational_runs_are_bit_identical(tmp_path):
    cfg = _write(tmp_path, TRINOMIAL_RATIO)
    cli.main(["ratio", "--config", cfg, "--out", str(tmp_path / "a")])
    cli.main(["ratio", "--config", cfg, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "ratio.csv").read_bytes() == \
        (tmp_path / "b" / "ratio.csv").read_bytes()


def test_periodic_scan_exits_one(tmp_path):
    code = cli.main(["spectral-scan", "--config", _write(tmp_path, SIMPLE_WALK_SCAN),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "result.passed = False" in manifest
    assert "aperiodicity fails" in manifest


def test_resource_guard_exits_three(tmp_path):
    cfg = """
[system]
alphabet = 4
order = 0
weights = 2/5 1/10 3/10 1/5

[cocycle]
group = heisenberg
values = 1,0,0; -1,0,0; 0,1,0; 0,-1,0

[experiment]
kind = kesten
k_max = 40
max_cells = 1000
"""
    code = cli.main(["kesten", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "run.exit_code = 3" in manifest
    assert "completed=" in manifest


def test_bad_config_exits_two(tmp_path):
    cfg = "[system]\nalphabet = nope\n"
    code = cli.main(["ratio", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2


def test_oracle_compare_run(tmp_path):
    cfg = """
[system]
alphabet = 3
order = 0
weights = 1/3 1/3 1/3
mode = rational

[cocycle]
group = lattice 1
values = -1; 0; 1

[experiment]
kind = oracle-compare
n_max = 5
"""
    code = cli.main(["oracle-compare", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "result.worst_deviation = 0.0" in manifest


NO_RETURN_FEKETE = """
[system]
alphabet = 2
order = 0
weights = 1/2 1/2

[cocycle]
group = lattice 1
values = 1; 2

[experiment]
kind = fekete
n_max = 10
"""


@pytest.mark.parametrize("cfg", [
    NO_RETURN_FEKETE,
    TRINOMIAL_RATIO.replace("kind = ratio\ng = 0\nn_grid = 4 8 16", "kind = fekete\nn_max = 0"),
], ids=["never-returns", "n_max-0"])
def test_fekete_without_returns_exits_one_with_manifest(tmp_path, capsys, cfg):
    out = tmp_path / "out"
    code = cli.main(["fekete", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "fekete.csv").read_text() == "n,log_mass_over_n,fekete_lower\n"
    manifest = (out / "manifest.txt").read_text()
    assert "run.exit_code = 1" in manifest
    assert re.search(r"^result\.note = no mass > 0 in float up to n = (10|0)$", manifest, re.M)
    assert "result.holds = False" in manifest and "result.lower = -inf" in manifest


def test_kesten_without_a_return_up_to_k_max_exits_one(tmp_path):
    # the +-1 walk first returns at k = 2; the drift walk never returns
    late = SIMPLE_WALK_SCAN.replace("kind = spectral-scan\nresolution = 32\nepsilon = 0.1",
                                    "kind = kesten\nk_max = 1")
    never = NO_RETURN_FEKETE.replace("kind = fekete\nn_max = 10", "kind = kesten\nk_max = 5")
    # (without a return at all, the note also says that the stride is undetermined)
    for i, (cfg, note) in enumerate((
            (late, "no mass > 0 in float up to n = 1"),
            (never, "no mass > 0 in float up to n = 5; no return up to k = 7: "
                    "the stride is undetermined"))):
        out = tmp_path / f"out{i}"
        assert cli.main(["kesten", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 1
        assert (out / "kesten.csv").read_text() == "k,conv_return,kth_root,stride_ratio\n"
        manifest = (out / "manifest.txt").read_text()
        assert "result.estimate = nan" in manifest
        assert f"result.note = {note}\n" in manifest


def test_fekete_rows_are_the_return_mass_estimator(tmp_path):
    # the fekete kind and pressure_estimate read one growth-rate routine
    from gmwalk import presets, pressure

    cfg = TRINOMIAL_RATIO.replace("kind = ratio\ng = 0\nn_grid = 4 8 16",
                                  "kind = fekete\nn_max = 30")
    assert cli.main(["fekete", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "fekete.csv").read_text().splitlines()[1:]
    sys_, coc, _ = presets.trinomial()
    rep = pressure.pressure_estimate("extension", sys_, coc, 0, 30, mode="rational")
    br = rep.brackets["return_mass"]
    assert rows == [f"{n},{v!r},{br.lower!r}"
                    for n, v in zip(rep.ns["return_mass"], rep.values["return_mass"])]


@pytest.mark.parametrize("kind, body, error", [
    ("cross-ratio", "g = 0\nn = 0", "cross ratios need n >= 1"),
    ("fourier-invert", "g = 0\nn = 4\ngrid = 0", "Fourier inversion needs grid_size >= 1"),
    ("kesten", "k_max = 0", "convolution spectral radii need k_max >= 1"),
    ("ratio", "g = 0\nn_grid = 4 8\nstride = -2", "the stride must be >= 1"),
])
def test_out_of_range_parameters_exit_two_with_manifest(tmp_path, kind, body, error):
    cfg = TRINOMIAL_RATIO.replace("kind = ratio\ng = 0\nn_grid = 4 8 16",
                                  f"kind = {kind}\n{body}")
    out = tmp_path / "out"
    code = cli.main([kind, "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert list(out.iterdir()) == [out / "manifest.txt"]
    manifest = (out / "manifest.txt").read_text()
    assert "run.exit_code = 2" in manifest
    assert f"run.error = {error}\n" in manifest


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("kind, body", [("ratio", "g = 1\nn_grid = 4 8"),
                                        ("cross-ratio", "g = 1\nn = 6"),
                                        ("conditions", "g = 1\nn0 = 1\nn1 = 1\nn = 4")])
def test_an_element_that_does_not_fit_the_group_exits_two(tmp_path, kind, body, mode):
    # g = 1 names no element of Z^2: a config error, not a CSV
    cfg = TRINOMIAL_RATIO.replace("group = lattice 1\nvalues = -1; 0; 1\ninvolution = 2 1 0",
                                  "group = lattice 2\nvalues = 1,0; 0,1; 0,0")
    cfg = cfg.replace("kind = ratio\ng = 0\nn_grid = 4 8 16", f"kind = {kind}\n{body}")
    cfg = cfg.replace("mode = rational", f"mode = {mode}")
    out = tmp_path / "out"
    assert cli.main([kind, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert list(out.iterdir()) == [out / "manifest.txt"]
    manifest = (out / "manifest.txt").read_text()
    assert "run.exit_code = 2" in manifest
    assert "run.error = element (1,) does not fit IntegerLattice(2)\n" in manifest


def test_oracle_compare_enumerates_once(tmp_path, monkeypatch):
    from gmwalk import oracle

    depths = []
    upto = oracle.oracle_distributions_upto

    def counted(system, cocycle, n):
        depths.append(n)
        return upto(system, cocycle, n)

    monkeypatch.setattr(oracle, "oracle_distributions_upto", counted)
    # and one rational engine pass, on the engine _make_engine picks, steps each depth once
    steps, built = [], []
    make = walkdist._make_engine

    def counted_make(*args, **kw):
        eng = make(*args, **kw)
        built.append(type(eng))
        step_once = eng.step_once

        def counted_step():
            steps.append(eng.n)
            step_once()

        eng.step_once = counted_step
        return eng

    monkeypatch.setattr(walkdist, "_make_engine", counted_make)
    cfg = TRINOMIAL_RATIO.replace("kind = ratio\ng = 0\nn_grid = 4 8 16",
                                  "kind = oracle-compare\nn_max = 6")
    assert cli.main(["oracle-compare", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 0
    assert depths == [6]
    assert built == [walkdist._PackedLatticeEngine]
    assert steps == [0, 1, 2, 3, 4, 5]
    rows = (tmp_path / "out" / "oracle_compare.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == [str(n) for n in range(1, 7)]


def test_embedded_group_and_product_parse():
    cfg = """
[system]
alphabet = 4
order = 0
weights = 1/4 1/4 1/4 1/4

[cocycle]
group = embedded
basis = 1; sqrt(2)
values = 1,0; -1,0; 0,1; 0,-1

[experiment]
kind = window
e = -1.1 1.1
n = 1
"""
    c = cli.parse_config(cfg)
    code, rows, header, extra = cli._dispatch(c)
    assert extra["mass"] == pytest.approx(0.5)
    prod = """
[system]
alphabet = 2
order = 0
weights = 1/2 1/2

[cocycle]
group = product(cyclic 3, lattice 1)
values = 1,1; 2,-1

[experiment]
kind = ratio
g = 0 0
n_grid = 6 12
"""
    c2 = cli.parse_config(prod)
    assert c2.cocycle.spec.key_size == 2


@pytest.mark.parametrize(
    "kind,body",
    [
        ("cross-ratio", "kind = cross-ratio\ng = 2\nn = 60"),
        ("conditions", "kind = conditions\nvariant = D\ng = 0\nn0 = 1\nn1 = 2\nn = 40"),
        ("fourier-invert", "kind = fourier-invert\ng = 0\nn = 10\ngrid = 32"),
        ("local-limit", "kind = local-limit\ng = 1\nn_grid = 20 40"),
        ("pressure", "kind = pressure\nvariant = extension\nn_max = 60"),
        ("fekete", "kind = fekete\nn_max = 40"),
    ],
)
def test_every_lattice_kind_dispatches(tmp_path, kind, body):
    cfg = f"""
[system]
alphabet = 3
order = 0
weights = 1/3 1/3 1/3

[cocycle]
group = lattice 1
values = -1; 0; 1

[experiment]
{body}
"""
    code = cli.main([kind, "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    csvs = list((tmp_path / "out").glob("*.csv"))
    assert len(csvs) == 1 and csvs[0].read_text().count("\n") >= 2


def test_mixing_kind_dispatches(tmp_path):
    cfg = """
[system]
alphabet = 2
order = 0
weights = 9/10 1/10

[cocycle]
group = cyclic 2
values = 0; 1

[experiment]
kind = mixing
n_max = 30
"""
    code = cli.main(["mixing", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "result.tail_r_squared" in manifest


def test_conditions_cm_kind_dispatches(tmp_path):
    cfg = """
[system]
alphabet = 4
order = 0
weights = 1/4 1/4 1/4 1/4

[cocycle]
group = embedded
basis = 1; sqrt(2)
values = 1,0; -1,0; 0,1; 0,-1

[experiment]
kind = conditions
variant = CM
cylinder = 0
f_box = -0.5 0.5
a_box = -1 1
e = -1 1
g = 0 0
n = 30
"""
    code = cli.main(["conditions", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "result.note = holds" in manifest


MARKOV_SCAN = """
[system]
alphabet = 2
order = 1
weights = 1/2 1/2; 1/4 3/4

[cocycle]
group = lattice 1
values = 1; -1

[experiment]
kind = spectral-scan
resolution = 16
epsilon = 0.1
"""


def test_numpy_scalars_written_as_numbers(tmp_path):
    # the Markov gap column and the scan results come out of numpy
    code = cli.main(["spectral-scan", "--config", _write(tmp_path, MARKOV_SCAN),
                     "--out", str(tmp_path / "out")])
    assert code == 1      # +-1 increments: period 2
    csv = (tmp_path / "out" / "spectral_scan.csv").read_text()
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    cells = [c for line in csv.splitlines() for c in line.split(",")]
    cells += [line.split(" = ", 1)[1] for line in manifest.splitlines()]
    assert not [c for c in cells if "np." in c]
    assert len(csv.splitlines()) == 17
    for line in csv.splitlines()[1:]:
        [float(c) for c in line.split(",")]
    assert walkdist._csv_cell(np.float64(0.25)) == "0.25"
    assert walkdist._csv_cell(np.int64(-3)) == "-3"
    # plain floats take a fast path to the same shortest repr
    assert [walkdist._csv_cell(x) for x in (0.1, -0.0, 1e300, float("inf"), 2, True)] == \
        ["0.1", "-0.0", "1e+300", "inf", "2", "True"]
    assert walkdist._csv_cell((0.5, Fraction(-1, 3))) == "0.5 -1/3"


def test_spectral_scan_manifest_counts_the_rows_lapack_solved(tmp_path):
    # a 2-state chain: every row of the half grid, and each row solved beside it
    code = cli.main(["spectral-scan", "--config", _write(tmp_path, MARKOV_SCAN),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    rows = int(re.search(r"^result\.fallback_rows = (\d+)$", manifest, re.M).group(1))
    config = cli.parse_config(MARKOV_SCAN)
    rep = spectral.aperiodicity_scan(config.system, config.cocycle, 16, 0.1)
    assert rows == rep.fallback_rows >= (16 + 2) // 2
    assert "result.max_modulus = " in manifest and "result.passed = False" in manifest


def test_consistency_error_exits_one_with_manifest(tmp_path):
    # +-1 steps on a two-state chain: the twisted eigenvalue at pi is not real
    cfg = MARKOV_SCAN.replace("kind = spectral-scan\nresolution = 16\nepsilon = 0.1",
                              "kind = local-limit\ng = 1\nn_grid = 20 40")
    code = cli.main(["local-limit", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "run.exit_code = 1" in manifest
    assert re.search(r"^run\.error = .*symmetry hypothesis fails", manifest, re.M)


def test_bad_basis_is_a_config_error(tmp_path, capsys):
    cfg = """
[system]
alphabet = 2
order = 0
weights = 1/2 1/2

[cocycle]
group = embedded
basis = 1/0
values = 1; -1

[experiment]
kind = window
e = -1 1
n = 2
"""
    code = cli.main(["window", "--config", _write(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: cocycle key 'basis' = '1/0': " in capsys.readouterr().err
    # a config that does not parse writes no manifest
    assert not (tmp_path / "out").exists()


def test_import_does_not_load_scipy():
    code = "import sys, gmwalk.cli, gmwalk.presets; assert 'scipy' not in sys.modules"
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def _write(tmp_path, text):
    p = tmp_path / "cfg.txt"
    p.write_text(text)
    return str(p)
