import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from spinrad.cli import OUT_ENV_VAR, _sampled_product_min, _verify_rows, \
    build_parser, main
from spinrad.config import DEFAULT_CUTOFF, DEFAULT_GRIDS, \
    DEFAULT_TOLERANCES, RunConfig, load_yaml, parse_config, run_manifest
from spinrad.cutoff import MAX_LAMBDA, CutoffProfile
from spinrad.errors import ConfigError
from spinrad.field_energy import _radial_cosines, _spherical_nodes, \
    rule_sizes
from spinrad.kernel import _oracle_rule
from spinrad.spin_operator import SpinSystem, assemble_am

from conftest import weight_basis_matrix

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
TWO = str(CONFIG_DIR / "two_spins.yaml")

MINIMAL = """
particles:
  - {position: [0.0, 0.0, 0.0], moment: 0.8}
  - {position: [0.9, -0.3, 0.4], moment: -0.5}
"""


def small_config(tmp_path, moments=(0.8, -0.5), extra=""):
    text = (
        "particles:\n"
        f"  - {{position: [0.0, 0.0, 0.0], moment: {moments[0]}}}\n"
        f"  - {{position: [0.9, -0.3, 0.4], moment: {moments[1]}}}\n"
        "grids: {n_radial: 10, n_angular: 8, n_max: 1}\n" + extra)
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


def test_parse_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.spin == 0.5
    assert cfg.cutoff == {"lambda": 1.0}
    assert cfg.grids == DEFAULT_GRIDS
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.seed == 1234
    system = cfg.system()
    assert system.P == 2
    assert np.allclose(system.moments, [0.8, -0.5])
    assert cfg.profile().lam == 1.0


def test_parse_overrides():
    cfg = parse_config(MINIMAL + "\nspin: 1.5\nseed: 7\n"
                       "grids: {n_radial: 8}\ntolerances: {identity: 1e-8}\n"
                       "cutoff: {lambda: 2.0}\n")
    assert cfg.spin == 1.5
    assert cfg.seed == 7
    assert cfg.grids["n_radial"] == 8
    assert cfg.grids["n_angular"] == DEFAULT_GRIDS["n_angular"]
    assert cfg.tolerances["identity"] == 1e-8
    assert cfg.profile().lam == 2.0


def test_parse_duplicate_positions():
    bad = MINIMAL.replace("[0.9, -0.3, 0.4]", "[0.0, 0.0, 0.0]")
    with pytest.raises(ConfigError,
                       match="key 'particles': positions pairwise distinct"):
        parse_config(bad)


def test_parse_bad_spin():
    with pytest.raises(ConfigError, match=r"key 'spin': spin must be a "
                       r"positive half-integer, got 0\.75"):
        parse_config(MINIMAL + "\nspin: 0.75\n")


def test_parse_syntax_error_location():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config("particles:\n  - {position: [0, 0, 0], moment: 1.0\n")


def test_pure_python_yaml_fallback(monkeypatch):
    # PyYAML without libyaml has no CSafeLoader; load_yaml falls back
    docs = {path: CONFIG_DIR.joinpath(path).read_text()
            for path in sorted(os.listdir(CONFIG_DIR))}
    with_libyaml = {path: load_yaml(text, path) for path, text in docs.items()}
    configs = {path: parse_config(text) for path, text in docs.items()
               if "particles" in with_libyaml[path]}
    assert len(configs) == 3
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    for path, text in docs.items():
        assert load_yaml(text, path) == with_libyaml[path]
    for path, cfg in configs.items():
        assert parse_config(docs[path]) == cfg
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config("particles:\n  - {position: [0, 0, 0], moment: 1.0\n")


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config(MINIMAL + "\nbogus: 1\n")


@pytest.mark.parametrize("extra, key", [
    ("tolerances: {identiy: 1e-8}", "tolerances.identiy"),
    ("grids: {nmax: 3}", "grids.nmax"),
    ("output: {dir: results}", "output"),
    ("cutoff: {lamda: 2.0}", "cutoff.lamda"),
    # the Gaussian is the only cutoff, so there is no key to name one
    ("cutoff: {kind: gaussian}", "cutoff.kind"),
    ("tolerances: {kernel: 1.0e-9}", "tolerances.kernel"),
])
def test_parse_unknown_nested_key(extra, key):
    with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
        parse_config(MINIMAL + "\n" + extra + "\n")


BAD_CONFIGS = [(MINIMAL + "\n" + extra + "\n", message) for extra, message in [
    ("grids: 5", "key 'grids' must be a mapping"),
    ("cutoff: 3", "key 'cutoff' must be a mapping"),
    ("tolerances: [1.0e-6]", "key 'tolerances' must be a mapping"),
    ("grids: {n_max: two}", "key 'grids.n_max' must be an integer"),
    ("tolerances: {identity: tight}",
     "key 'tolerances.identity' must be a number"),
    ("cutoff: {lambda: wide}", "key 'cutoff.lambda' must be a number"),
    ("seed: abc", "key 'seed' must be an integer"),
    ("spin: half", "key 'spin' must be a number"),
    # integer keys refuse what int() would truncate or reinterpret
    ("grids: {n_max: 2.7}", "key 'grids.n_max' must be an integer"),
    ("seed: 3.5", "key 'seed' must be an integer"),
    ("seed: true", "key 'seed' must be an integer"),
    ("seed: .inf", "key 'seed' must be an integer"),
    ("seed: -5", "key 'seed' must be non-negative"),
    # number keys refuse YAML booleans, which float() would read as 1 or 0
    ("spin: true", "key 'spin' must be a number"),
    ("tolerances: {identity: on}",
     "key 'tolerances.identity' must be a number"),
    # the cutoff is checked as it is parsed, not when first used
    ("cutoff: {lambda: -1.0}", "key 'cutoff': cutoff scale must be positive"),
    ("cutoff: {lambda: .inf}", "key 'cutoff': cutoff scale must be positive"),
    # lam^3 would overflow in the kernel, lam^6 in the norms of A_M
    ("cutoff: {lambda: 1e120}",
     r"key 'cutoff': .* at most 1e\+50, got 1e\+120"),
    ("cutoff: {lambda: 1.0e+52}",
     r"key 'cutoff': .* at most 1e\+50, got 1e\+52"),
    # SpinSystem refuses a non-finite spin with the same message
    ("spin: .nan",
     "key 'spin': spin must be a positive half-integer, got nan"),
    ("spin: .inf",
     "key 'spin': spin must be a positive half-integer, got inf"),
    ("spin: 0", "key 'spin': spin must be a positive half-integer, got 0.0"),
]] + [(MINIMAL.replace("moment: -0.5", "moment: " + value),
       rf"key 'particles\[1\]' must be {what}")
      for value, what in [("big", "a number"), ("true", "a number"),
                          (".nan", "finite")]]


@pytest.mark.parametrize("text, message", BAD_CONFIGS)
def test_parse_bad_value(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_parse_yaml11_exponent():
    # YAML 1.1 reads 1e-1 (no dot) as a string; it is still a number here
    cfg = parse_config(MINIMAL + "\ncutoff: {lambda: 1e-1}\n")
    assert cfg.cutoff["lambda"] == 0.1
    assert cfg.profile().lam == 0.1


def test_readme_configuration_block_is_the_defaults():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Configuration format"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    block = section[start:section.index("```", start)]
    cfg = parse_config(block)
    assert cfg.cutoff == DEFAULT_CUTOFF
    assert cfg.grids == DEFAULT_GRIDS
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.seed == RunConfig.seed
    # every key the block shows is one parse_config reads
    assert set(load_yaml(block, "README")) == set(asdict(cfg))


def test_manifest_round_trip():
    cfg = parse_config(MINIMAL)
    doc = json.loads(run_manifest(cfg, {"suite": "unit"}))
    assert doc["suite"] == "unit"
    assert doc["config"]["seed"] == 1234
    assert "numpy" in doc["versions"]


def test_cli_kernel(tmp_path):
    rc = main(["kernel", "--config", TWO, "--out", str(tmp_path),
               "--at", "0.3", "0.1", "-0.5"])
    assert rc == 0
    doc = json.loads((tmp_path / "kernel.json").read_text())
    K = np.array(doc["matrix"])
    assert K.shape == (3, 3)
    assert np.abs(K - K.T).max() <= 1e-9
    assert doc["a11_origin"] == pytest.approx(0.014965593510430548, rel=1e-8)


@pytest.mark.parametrize("lam, at", [(1.0, "2e103"), (MAX_LAMBDA, "1e60")])
def test_cli_kernel_beyond_finite_z_cubed(tmp_path, capsys, lam, at):
    # z = lam |x| / 2 past 5.6e102 used to end in an OverflowError
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(Path(TWO).read_text().replace(
        "lambda: 1.0", f"lambda: {lam!r}"))
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path),
                 "--at", at, "0", "0"]) == 0
    assert capsys.readouterr().err == ""
    K = np.array(json.loads((tmp_path / "kernel.json").read_text())["matrix"])
    r = float(at)
    tail = np.diag([2.0, -1.0, -1.0]) / (4.0 * math.pi) / r / r / r
    assert np.abs(K - tail).max() <= 1e-9 * np.abs(tail).max()


def test_cli_e2(tmp_path):
    rc = main(["e2", "--config", TWO, "--out", str(tmp_path), "--eigenbasis"])
    assert rc == 0
    doc = json.loads((tmp_path / "e2.json").read_text())
    assert doc["lambda_min"] < 0.0
    assert doc["multiplicity"] >= 1
    assert doc["product_state_sampled_min"] >= doc["lambda_min"] - 1e-9
    assert len(doc["eigenbasis"]) == doc["multiplicity"]


def test_cli_calls_in_one_process_parse_independently(tmp_path, capsys,
                                                      monkeypatch):
    # main reuses one parser; no flag or --out of a call reaches the next
    d1, d2, d3 = (tmp_path / d for d in ("d1", "d2", "d3"))
    monkeypatch.setenv(OUT_ENV_VAR, str(d3))
    assert main(["e2", "--config", TWO, "--eigenbasis", "--out", str(d1)]) == 0
    assert main(["e2", "--config", TWO, "--out", str(d2)]) == 0
    assert main(["e2", "--config", TWO]) == 0
    assert "eigenbasis" in json.loads((d1 / "e2.json").read_text())
    for d in (d2, d3):
        assert "eigenbasis" not in json.loads((d / "e2.json").read_text())
    assert build_parser() is build_parser()


def loop_sampled_min(A, system, rng):
    """Per-state sampling: one kron chain and one vdot per product state."""
    d1 = int(round(2 * system.s + 1))
    matrix = weight_basis_matrix(A)
    best = 0.0
    for _ in range(200):
        vec = np.ones(1, dtype=complex)
        for _ in range(system.P):
            v = rng.normal(size=d1) + 1j * rng.normal(size=d1)
            vec = np.kron(vec, v / np.linalg.norm(v))
        best = min(best, np.vdot(vec, matrix @ vec).real)
    return best


@pytest.mark.parametrize("s, P", [(0.5, 1), (0.5, 2), (0.5, 3), (0.5, 4),
                                  (1.0, 3), (2.5, 2)])
def test_e2_batched_sampling_matches_loop(s, P):
    rng = np.random.default_rng(int(10 * s) + P)
    system = SpinSystem(positions=rng.normal(size=(P, 3)),
                        moments=rng.uniform(-1.0, 1.0, size=P), s=s)
    A = assemble_am(system, CutoffProfile(1.0))
    ref = loop_sampled_min(A, system, np.random.default_rng(99))
    got = _sampled_product_min(A.coefficients, system.s,
                               np.random.default_rng(99))
    assert ref < 0.0
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("name", ["single_spin", "two_spins",
                                  "two_spins_equal"])
def test_e2_sampled_min_matches_dense_on_bundled_configs(tmp_path, name):
    # e2 scores its product states on the coefficient matrix; the loop
    # scores the same draws as Kronecker vectors against the dense A_M
    path = str(CONFIG_DIR / f"{name}.yaml")
    assert main(["e2", "--config", path, "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "e2.json").read_text())
    cfg = parse_config(Path(path).read_text())
    system = cfg.system()
    A = assemble_am(system, cfg.profile())
    ref = loop_sampled_min(A, system, np.random.default_rng(cfg.seed))
    assert abs(got["product_state_sampled_min"] - ref) <= 1e-14 * abs(ref)


def test_cli_verify_passes_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", TWO, "--out", str(out1)]) == 0
    assert main(["verify", "--config", TWO, "--out", str(out2)]) == 0
    assert (out1 / "verify.csv").read_bytes() \
        == (out2 / "verify.csv").read_bytes()
    assert (out1 / "verify_manifest.json").read_bytes() \
        == (out2 / "verify_manifest.json").read_bytes()
    lines = (out1 / "verify.csv").read_text().strip().splitlines()
    assert lines[0].startswith("check_name,")
    assert all(line.endswith(",True") for line in lines[1:])


def test_verify_gates_scale_with_the_values():
    # at lam = 0.01 every value is about 1e-8; a gate floored at 1 (1e-6
    # absolute) would pass a residual 100 times the value itself
    cfg = parse_config(Path(TWO).read_text().replace("lambda: 1.0",
                                                     "lambda: 0.01"))
    rows = {row[0]: row for row in _verify_rows(cfg)}
    radius = abs(assemble_am(cfg.system(), cfg.profile()).eigenvalues[0])
    assert radius < 1e-7
    for name, (_, lhs, _, resid, tol, ok) in rows.items():
        if name.startswith(("th_egal", "class_decomposition")):
            assert tol == cfg.tolerances["identity"] * abs(lhs) < 1e-13
            assert ok
    assert rows["negative_semidefinite"][4] == pytest.approx(1e-10 * radius)
    assert rows["moment_scaling_c2"][4] == pytest.approx(1e-12 * radius)


def test_cli_verify_seed_changes_samples(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", TWO, "--out", str(out1),
                 "--seed", "1"]) == 0
    assert main(["verify", "--config", TWO, "--out", str(out2),
                 "--seed", "2"]) == 0
    assert (out1 / "verify.csv").read_bytes() \
        != (out2 / "verify.csv").read_bytes()


@pytest.mark.parametrize("spin", [1.0, 1.5])
def test_cli_verify_higher_spin(tmp_path, capsys, spin):
    cfg = small_config(tmp_path, extra=f"spin: {spin}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_verify_rows_scale_with_the_cutoff(lam):
    # Seeds 1, 6 and 7 failed a kernel_vs_oracle row at lam = 2 while |x|
    # was drawn in [0.2, 4] absolute and gated at 1e-6 absolute.
    text = Path(TWO).read_text()
    assert "lambda: 1.0" in text
    cfg = parse_config(text.replace("lambda: 1.0", f"lambda: {lam}"))
    for seed in (1, 6, 7):
        cfg.seed = seed
        assert [row[0] for row in _verify_rows(cfg) if not row[-1]] == []


@pytest.mark.filterwarnings("error")  # an overflow warns before it raises
@pytest.mark.parametrize("suite, args", [
    ("kernel", ["--at", "0.3", "0.1", "-0.5"]), ("e2", ["--eigenbasis"])])
def test_cli_largest_cutoff_scale(tmp_path, capsys, suite, args):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(Path(TWO).read_text().replace(
        "lambda: 1.0", f"lambda: {MAX_LAMBDA!r}"))
    assert main([suite, "--config", str(cfg), "--out", str(tmp_path),
                 *args]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / f"{suite}.json").read_text())
    values = doc["matrix"] if suite == "kernel" else doc["lambda_min"]
    assert np.all(np.isfinite(values))


def test_cli_verify_passes_at_separation_16(tmp_path, capsys):
    # a fixed 96 x 32 x 64 rule resolved the pair to the relative 1e-6 gate
    # out to |x| = 16 / lam (residuals up to 6e-8 of the value) and failed
    # th_egal from 20 on; the sized rule resolves it at every separation
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(Path(TWO).read_text().replace(
        "[0.9, -0.3, 0.4]", "[16.0, -0.3, 0.4]"))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)


@pytest.mark.parametrize("spin", [0.5, 1.5])
@pytest.mark.parametrize("d", [20.0, 40.0, 80.0])
def test_verify_field_energy_rows_at_large_separation(d, spin):
    # the sized rule grows with the pair: every field-energy row closes to
    # 1e-12 of its value, a 1e6 margin on the gate
    text = Path(TWO).read_text().replace("[0.9, -0.3, 0.4]",
                                         f"[{d}, -0.3, 0.4]")
    cfg = parse_config(text.replace("spin: 0.5", f"spin: {spin}"))
    rows = _verify_rows(cfg)
    assert all(row[-1] for row in rows)
    field_rows = [row for row in rows
                  if row[0].startswith(("th_egal", "class_decomposition"))]
    assert len(field_rows) == 6
    for name, lhs, rhs, resid, tol, ok in field_rows:
        assert resid <= 1e-12 * abs(lhs), name


def test_cli_verify_refuses_rule_past_budget(tmp_path, capsys):
    # the bundled pair is 1/lam apart at lam = 1, and about 1e50/lam at
    # lam = 1e50: no rule resolves it, so verify stops with the budget's
    # ResourceError instead of writing FAIL rows
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(Path(TWO).read_text().replace(
        "lambda: 1.0", f"lambda: {MAX_LAMBDA!r}"))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR field-energy rule ")
    assert "above the budget" in captured.err
    assert not out.exists()


def test_verify_manifest_records_the_rule(tmp_path):
    assert main(["verify", "--config", TWO, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify_manifest.json").read_text())
    rule = doc["field_energy_rule"]
    sizes = (rule["n_radial"], rule["n_theta"], rule["n_phi"])
    cfg = parse_config(Path(TWO).read_text())
    assert sizes == rule_sizes(cfg.profile(), cfg.system().positions)
    assert rule["nodes"] == math.prod(sizes)


def test_cli_classical(tmp_path):
    ori = tmp_path / "ori.yaml"
    ori.write_text("- [0.0, 0.0, 1.0]\n- [1.0, 0.0, 0.0]\n")
    rc = main(["classical", "--config", TWO, "--out", str(tmp_path),
               "--orientations", str(ori)])
    assert rc == 0
    lines = (tmp_path / "classical.csv").read_text().strip().splitlines()
    assert float(lines[1].split(",")[1]) > 0.0


def test_cli_artifacts_same_from_cold_and_warm_rules(tmp_path):
    # each fixed Gauss-Legendre rule, the oracle's table and the cosine sums
    # of a geometry are built on their first use in the process
    caches = (_spherical_nodes, _oracle_rule, _radial_cosines)
    for cache in caches:
        cache.cache_clear()
    blobs = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(["verify", "--config", TWO, "--out", str(out)]) == 0
        assert main(["classical", "--config", TWO, "--out", str(out),
                     "--orientations",
                     str(CONFIG_DIR / "orientations_two.yaml")]) == 0
        blobs.append((out / "verify.csv").read_bytes()
                     + (out / "classical.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert [cache.cache_info().misses for cache in caches] == [1, 1, 1]


def test_cli_verify_takes_cosines_once_per_geometry(tmp_path):
    # six field energies per verify run: the moved sites miss once, and
    # TWO's sites with other moments hit
    moved = tmp_path / "moved.yaml"
    moved.write_text(MINIMAL.replace("[0.9, -0.3, 0.4]", "[0.2, 1.1, -0.6]"))
    _radial_cosines.cache_clear()
    for i, cfg in enumerate([TWO, str(moved),
                             small_config(tmp_path, (0.3, 0.7))]):
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / str(i))]) == 0
    assert _radial_cosines.cache_info()[:2] == (16, 2)  # hits, misses


def test_cli_verify_fail_exits_one_and_writes_artifacts(tmp_path, capsys):
    # no energy identity closes to 1e-300 relative: those rows fail
    cfg = small_config(tmp_path, extra="tolerances: {identity: 1.0e-300}\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert any(line.startswith("FAIL th_egal_") for line in lines)
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines)
    rows = (out / "verify.csv").read_text().strip().splitlines()[1:]
    assert [row.endswith(",False") for row in rows] \
        == [line.startswith("FAIL ") for line in lines]
    doc = json.loads((out / "verify_manifest.json").read_text())
    assert doc["config"]["tolerances"]["identity"] == 1e-300


def test_cli_dense_budget_only_where_a_m_is_built(tmp_path, capsys):
    # 2^13 spin states: classical builds no spin-space array, e2 must
    cfg = tmp_path / "thirteen.yaml"
    cfg.write_text("particles:\n" + "".join(
        f"  - {{position: [{1.5 * i}, 0.0, 0.0], moment: 1.0}}\n"
        for i in range(13)))
    ori = tmp_path / "ori.yaml"
    ori.write_text("- [0.0, 0.0, 1.0]\n" * 13)
    assert main(["classical", "--config", str(cfg), "--out", str(tmp_path),
                 "--orientations", str(ori)]) == 0
    lines = (tmp_path / "classical.csv").read_text().strip().splitlines()
    assert float(lines[1].split(",")[1]) > 0.0
    capsys.readouterr()
    out = tmp_path / "e2"
    assert main(["e2", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ")
    assert "dense budget" in err[0]
    # an ERROR exit prints nothing to stdout and writes no artifact
    assert captured.out == ""
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("text", [
    "- [0.0, 0.0, 1.0]\n- [1.0, 0.0]\n",
    "- [0.0, 0.0, 1.0]\n- [1.0, 0.0, east]\n",
    "- [0.0, 0.0, 1.0\n- [1.0, 0.0, 0.0]\n",
])
def test_cli_classical_bad_orientations_exit_one(tmp_path, capsys, text):
    ori = tmp_path / "ori.yaml"
    ori.write_text(text)
    assert main(["classical", "--config", TWO, "--out", str(tmp_path),
                 "--orientations", str(ori)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR orientations file")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("row", ["[.nan, 0.0, 1.0]", "[.inf, 0.0, 0.0]"])
def test_cli_classical_non_finite_orientation_exit_one(tmp_path, capsys, row):
    ori = tmp_path / "ori.yaml"
    ori.write_text(f"- [0.0, 0.0, 1.0]\n- {row}\n")
    assert main(["classical", "--config", TWO, "--out", str(tmp_path),
                 "--orientations", str(ori)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR ") and "unit vectors" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "classical.csv").exists()


def test_cli_fock_fit(tmp_path):
    cfg = small_config(tmp_path)
    rc = main(["fock-fit", "--config", cfg, "--out", str(tmp_path),
               "--scales", "0.4,0.2,0.1,0.05"])
    assert rc == 0
    doc = json.loads((tmp_path / "fock_fit_manifest.json").read_text())
    assert all(doc["checks"].values())
    assert abs(doc["c2"] / doc["a_disc_min"] - 1.0) <= 0.02
    rows = (tmp_path / "fock_fit.csv").read_text().strip().splitlines()
    assert len(rows) == 5


def test_cli_fock_fit_zero_moments_exit_one(tmp_path, capsys):
    # at M = 0 every energy and photon number is 0: nothing to fit
    cfg = small_config(tmp_path, moments=(0.0, 0.0))
    out = tmp_path / "out"
    assert main(["fock-fit", "--config", cfg, "--out", str(out),
                 "--scales", "0.4,0.2,0.1,0.05"]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR ")
    assert "nonzero moment" in err[0]
    assert captured.out == ""
    assert not out.exists()


def test_cli_multiplicity(tmp_path):
    cfg = small_config(tmp_path, moments=(1.0, 1.0))
    rc = main(["multiplicity", "--config", cfg, "--out", str(tmp_path),
               "--g", "0.2,0.1"])
    assert rc == 0
    rows = (tmp_path / "multiplicity.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    for line in rows[1:]:
        g, energy, mh, ma, ov = line.split(",")
        assert int(mh) <= int(ma)
        assert float(energy) < 0.0
    doc = json.loads((tmp_path / "multiplicity_manifest.json").read_text())
    spectrum = doc["a_disc_spectrum"]
    assert len(spectrum) == 4 and spectrum == sorted(spectrum)
    assert [m["g"] for m in doc["dressed_multiplet"]] == [0.2, 0.1]
    for m in doc["dressed_multiplet"]:
        # (eig F(E_0) - E_0) / g^2 starts at 0 and tends to the A_1 gaps
        assert len(m["values"]) == 4 and abs(m["values"][0]) <= 1e-12
        assert m["values"] == pytest.approx(
            [a - spectrum[0] for a in spectrum], abs=0.1 * abs(spectrum[0]))


def test_cli_multiplicity_two_photons_strong_coupling(tmp_path):
    # two_spins_equal at n_max = 2 up to g = 2: the 24x12 grid's 42,340
    # states, where the Feshbach CG has to run
    cfg = yaml.safe_load((CONFIG_DIR / "two_spins_equal.yaml").read_text())
    cfg["grids"]["n_max"] = 2
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = main(["multiplicity", "--config", str(path), "--out", str(tmp_path),
               "--g", "0.3,1.0,2.0"])
    assert rc == 0
    rows = (tmp_path / "multiplicity.csv").read_text().strip().splitlines()
    assert [tuple(map(int, line.split(",")[2:4])) for line in rows[1:]] \
        == [(2, 2)] * 3


def test_cli_multiplicity_cg_limit_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("spinrad.fock.MAX_CG_STEPS", 2)
    cfg = Path(small_config(tmp_path, moments=(1.0, 1.0)))
    cfg.write_text(cfg.read_text().replace("n_max: 1", "n_max: 2"))
    out = tmp_path / "out"
    rc = main(["multiplicity", "--config", str(cfg), "--out", str(out),
               "--g", "0.3"])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR Feshbach CG")
    assert "after 2 steps" in err[0]
    assert captured.out == ""
    assert not out.exists()


def test_cli_multiplicity_spin_one_cluster_whole(tmp_path):
    cfg = tmp_path / "spin_one.yaml"
    cfg.write_text("particles:\n"
                   "  - {position: [0.0, 0.0, 0.0], moment: 1.0}\n"
                   "spin: 1.0\n")
    rc = main(["multiplicity", "--config", str(cfg), "--out", str(tmp_path),
               "--g", "0.2,0.1"])
    assert rc == 0
    rows = (tmp_path / "multiplicity.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    for line in rows[1:]:
        g, energy, mh, ma, ov = line.split(",")
        assert (int(mh), int(ma)) == (3, 3)


def test_fock_fit_bytes_independent_of_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blobs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "spinrad.cli", "fock-fit",
                        "--config", TWO, "--scales", "0.4,0.2,0.1,0.05",
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
        blobs.append((out / "fock_fit.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("imports, pinned, warns", [
    ("numpy, spinrad", "2", True), ("spinrad, numpy", "2", False),
    ("numpy, spinrad", "1", False)])
def test_blas_pin_warns_when_numpy_came_first(imports, pinned, warns):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=pinned,
               OMP_NUM_THREADS=pinned, MKL_NUM_THREADS=pinned,
               PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", f"import {imports}"],
                         env=env, check=True, capture_output=True, text=True)
    lines = run.stderr.splitlines()
    assert sum("RuntimeWarning" in line for line in lines) == int(warns)
    assert ("pin cannot act" in run.stderr) == warns


def test_artifacts_bytes_independent_of_blas_threads(tmp_path):
    # One interpreter per thread count runs every suite on both configs.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    suites = [("e2",), ("verify",),
              ("fock-fit", "--scales", "0.4,0.2,0.1,0.05"),
              ("multiplicity", "--g", "0.4,0.2,0.1")]
    calls = [[suite, "--config", str(CONFIG_DIR / f"{name}.yaml"), *flags,
              "--out", name]
             for name in ("two_spins_equal", "single_spin")
             for suite, *flags in suites]
    script = ("import json, sys\n"
              "from spinrad.cli import main\n"
              "sys.exit(max([main(c) for c in json.loads(sys.argv[1])]))")
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / threads
        out.mkdir()
        subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                       cwd=out, env=env, check=True, capture_output=True)
        artifacts.append({str(f.relative_to(out)): f.read_bytes()
                          for f in sorted(out.rglob("*")) if f.is_file()})
    assert len(artifacts[0]) == 14
    assert artifacts[0] == artifacts[1]


def test_cli_config_error_exit_one(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("particles: []\n")
    assert main(["verify", "--config", str(bad),
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("text", [text for text, _ in BAD_CONFIGS]
                         + [MINIMAL + "cutoff: {lamda: 2.0}"])
def test_cli_bad_config_value_exit_one(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    assert main(["e2", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("ERROR ")


def test_cli_missing_config_exit_one(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "none.yaml"),
                 "--out", str(tmp_path)]) == 1


def test_cli_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite, flag", [("fock-fit", "--scales"),
                                         ("multiplicity", "--g")])
@pytest.mark.parametrize("value", ["0.4,abc", "0.4,", "0.4,nan", "inf"])
def test_cli_bad_number_list_exit_two(capsys, suite, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([suite, "--config", TWO, flag, value])
    assert exc.value.code == 2
    assert "comma-separated numbers" in capsys.readouterr().err


@pytest.mark.parametrize("at", [["nan", "0", "0"], ["0", "inf", "0"],
                                ["0", "0", "Infinity"]])
def test_cli_kernel_non_finite_exit_two(capsys, tmp_path, at):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--config", TWO, "--out", str(tmp_path), "--at", *at])
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "kernel.json").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "one"])
def test_cli_seed_must_be_non_negative_integer(capsys, tmp_path, seed):
    with pytest.raises(SystemExit) as exc:
        main(["e2", "--config", TWO, "--out", str(tmp_path), "--seed", seed])
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "e2.json").exists()


@pytest.mark.parametrize("suite, args", [
    ("kernel", ["--at", "0.3", "0.1", "-0.5"]),
    ("classical", ["--orientations", "ori.yaml"]),
    ("fock-fit", ["--scales", "0.4,0.2,0.1,0.05"]),
    ("multiplicity", ["--g", "0.2"])])
def test_cli_seed_only_where_read(capsys, suite, args):
    # the seed changes nothing in these suites, so they do not take --seed
    with pytest.raises(SystemExit) as exc:
        main([suite, "--config", TWO, *args, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
