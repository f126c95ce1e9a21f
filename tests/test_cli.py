"""Command-line behavior: exit codes, files, determinism, formats."""

import hashlib
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from afbell import __version__, cli, experiment
from afbell.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    build_parser,
    config_from_args,
    main,
    parse_seed,
    parse_trials,
    run_verify_suite,
)
from afbell.experiment import SETTING_PAIRS, run_trials
from afbell.qstate import ETA_BORN_TABLES
from afbell.rotations import sample_su2_batch, split_seed


def test_parse_seed_formats():
    assert parse_seed("42") == 42
    assert parse_seed("0xDEADBEEF") == 0xDEADBEEF
    assert parse_seed("0Xff") == 255
    with pytest.raises(ValueError):
        parse_seed(str(2**64))
    with pytest.raises(ValueError):
        parse_seed("-1")


def test_parse_trials_formats():
    assert parse_trials("1000000") == parse_trials("1e6") == parse_trials("1E6") == 10**6
    assert parse_trials("2.5e3") == parse_trials("2500.0") == 2500
    for text in ("1.5", "nan", "inf", "-inf", "1e", "many"):
        with pytest.raises(ValueError):
            parse_trials(text)


def test_sample_trials_notation(tmp_path, capsys):
    parser = build_parser()

    def sample_hash(trials):
        args = parser.parse_args(["sample", "--trials", trials, "--seed", "5"])
        return config_from_args(args).config_hash()

    assert sample_hash("1e6") == sample_hash("1000000")
    assert sample_hash("2e4") == "5eb3e526fb6a"
    assert main(["sample", "--trials", "1e3", "--out", str(tmp_path)]) == EXIT_OK
    pairs = json.loads((tmp_path / "stats.json").read_text())["stats"]["setting_pairs"]
    assert sum(pair["trials"] for pair in pairs.values()) == 1000
    # 2^59 and more trials are rejected before run_trials allocates anything.
    for bad in ("1.5", "nan", "inf", "0", "-1e3", str(2**59), "1e19", "1e20"):
        assert main(["sample", "--trials", bad, "--out", str(tmp_path)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("trials", [str(2**58), "1e17"])
def test_sample_unallocatable_trials_is_usage_error(tmp_path, capsys, trials):
    # Below 2^59, but the log's first column alone is past any address
    # space, so the first allocation fails at once.
    out = tmp_path / "run"
    assert main(["sample", "--trials", trials, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: --trials") and "28 bytes per trial" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


# sha256 of the trials.csv data rows (every line after the '#' metadata
# block) of `sample --trials 20000 --seed 5` on each measurement path.
GOLDEN_CSV_ROWS = {
    "pvm": "ed716b8faeae4cc2ffd8bfc4e2ba2f7ded37ac8b67b3026bfe1c4458719aa324",
    "protocol": "7f7a01a4e2712953723079bc469358f454525d04f19a27656b1444fa550ad58e",
}


@pytest.mark.parametrize("path", sorted(GOLDEN_CSV_ROWS))
def test_sample_golden_csv_rows(tmp_path, capsys, path):
    argv = ["sample", "--trials", "20000", "--seed", "5", "--measurement", path,
            "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "trials.csv").read_bytes().splitlines(keepends=True)
    rows = b"".join(line for line in lines if not line.startswith(b"#"))
    assert hashlib.sha256(rows).hexdigest() == GOLDEN_CSV_ROWS[path]


# sha256 of the whole stats.json of `sample` on each measurement path: the
# uniform run above, and a fixed:GG run, whose three other setting pairs have
# no trials, so their empirical tables are zeros and three chain values null.
GOLDEN_STATS = {
    ("pvm", "--trials", "20000", "--seed", "5"):
        "d00258c6894b8ebea9c0fb6c29c1f717405268852b5016238906612b190d1d1e",
    ("protocol", "--trials", "20000", "--seed", "5"):
        "74c5b8219531bde6dc5149a636d05a8a3aafc7af4ece9d9f0182091780d10adb",
    ("pvm", "--trials", "3000", "--seed", "7", "--policy", "fixed:GG"):
        "f32a23e962345619f4d0c5f71687ec1ee9ece47cba2856e256ae192ea9e0f28f",
    ("protocol", "--trials", "3000", "--seed", "7", "--policy", "fixed:GG"):
        "86c6d9a08d1a4f72c4b3dd24e5299ded00b12ceceb71de80b181ca0ab76cc2ed",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STATS), ids=" ".join)
def test_sample_golden_stats(tmp_path, capsys, argv):
    path, *rest = argv
    assert main(["sample", "--measurement", path, *rest, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "stats.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_STATS[argv]


def _sample_peak_above_log(n, out):
    """tracemalloc peak of `afbell sample` over n trials, less the bytes of
    its n-trial log."""
    argv = ["sample", "--trials", str(n), "--seed", "11", "--out", str(out)]
    per_trial = sum(col.itemsize for col in vars(run_trials(1, 0)[0]).values())
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1] - n * per_trial
    finally:
        tracemalloc.stop()


def test_sample_memory_is_the_log_plus_a_constant(tmp_path, capsys):
    # Beyond its 28-byte-per-trial log, sample holds the kernel's buffers
    # and both sides' draws, sized to one chunk and kept for the run, and
    # one chunk's draw temporaries, CSV rows and counts at a time: 4.6 MiB
    # at 50k and at 400k trials (numpy 2.4).  It was 5.1 MiB when each
    # chunk's draw built (n, 4) temporaries and a fresh (n, 2, 2) stack, and
    # 4.2 MiB when each chunk allocated its own kernel arrays as well.
    # When run_trials concatenated per-chunk lists and the counts and code
    # check made n-long temporaries, the rest traced 8.1 MiB at 50k and
    # 21.2 MiB at 400k.
    small = _sample_peak_above_log(50_000, tmp_path / "small")
    large = _sample_peak_above_log(400_000, tmp_path / "large")
    capsys.readouterr()
    assert large <= 6 * 2**20
    assert abs(large - small) <= 2**19


def test_runconfig_validation():
    RunConfig(command="verify").validate()
    with pytest.raises(ValueError):
        RunConfig(command="explode").validate()
    with pytest.raises(ValueError):
        RunConfig(command="sample", trials=0).validate()
    RunConfig(command="sample", trials=2**59 - 1).validate()
    with pytest.raises(ValueError):
        RunConfig(command="sample", setting_policy="weird").validate()
    with pytest.raises(ValueError):
        RunConfig(command="verify", tolerance=-1.0).validate()


def test_config_hash_ignores_presentation_fields(tmp_path):
    a = RunConfig(command="sample", root_seed=5, output_dir=tmp_path / "a")
    b = RunConfig(command="sample", root_seed=5, output_dir=tmp_path / "b", format="json")
    c = RunConfig(command="sample", root_seed=6, output_dir=tmp_path / "a")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # Dropped constraints are a set: order and repetition on the command line
    # do not change what is computed.
    parser = build_parser()

    def audit_hash(*drops):
        argv = ["lhv-audit"] + [x for d in drops for x in ("--drop-constraint", d)]
        return config_from_args(parser.parse_args(argv)).config_hash()

    both = audit_hash("ff_zero", "gg_hardy")
    assert audit_hash("gg_hardy", "ff_zero") == both
    assert audit_hash("ff_zero", "gg_hardy", "ff_zero") == both
    assert audit_hash("ff_zero") != both


def test_config_hash_measurement_path():
    parser = build_parser()

    def sample_hash(*argv):
        return config_from_args(parser.parse_args(["sample", *argv])).config_hash()

    # Recorded before --measurement existed: the default pvm path leaves every
    # earlier hash as it was.
    assert sample_hash() == "c1475cd07c68"
    assert sample_hash("--measurement", "pvm") == "c1475cd07c68"
    assert sample_hash("--trials", "20000", "--seed", "5") == "5eb3e526fb6a"
    assert sample_hash("--measurement", "protocol") != "c1475cd07c68"


def test_sample_unknown_measurement_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sample", "--trials", "10", "--measurement", "dense",
                 "--out", str(out)]) == EXIT_USAGE
    assert "--measurement" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError):
        RunConfig(command="sample", measurement_path="dense").validate()


def test_sample_protocol_path(tmp_path, capsys):
    assert main(["sample", "--trials", "3000", "--seed", "12", "--measurement", "protocol",
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((tmp_path / "stats.json").read_text())
    assert payload["metadata"]["measurement_path"] == "protocol"
    lines = (tmp_path / "trials.csv").read_text().splitlines()
    assert "# measurement_path: protocol" in lines
    rows = [line for line in lines if not line.startswith("#")][1:]
    log, _ = run_trials(3000, 12, "uniform", measurement_path="protocol")
    assert [int(r.rsplit(",", 2)[1]) for r in rows] == log.outcome_a.tolist()
    assert [int(r.rsplit(",", 1)[1]) for r in rows] == log.outcome_b.tolist()


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


VERIFY_ROWS = (
    "state-gram", "protocol-partition", "protocol-pvm-agreement", "invariance-generators",
    "invariance-phi-psi", "invariance-eta-pairs",
    "exact-tables", "zero-outcome-mass", "rotation-robustness", "no-signaling",
)


def test_verify_suite_all_pass():
    results = run_verify_suite()
    assert all(r.passed for r in results)
    assert tuple(r.name for r in results) == VERIFY_ROWS


def test_verify_suite_makes_one_kernel_call(monkeypatch):
    # Every setup verify tables (the identity, setup 77 and the robustness
    # setups) goes through one batched kernel call, 4 setting pairs each.
    calls, born_tables = [], experiment._born_tables
    monkeypatch.setattr(experiment, "_born_tables",
                        lambda kernel, u_a, *rest: calls.append(len(u_a))
                        or born_tables(kernel, u_a, *rest))
    assert all(r.passed for r in run_verify_suite())
    assert calls == [4 * (2 + cli.ROBUSTNESS_SAMPLES)]
    # Each row reads its own setups of that batch: move 1e-9 of FF mass in
    # setup 77 (index 1) or in the last robustness setup.
    setup_tables = cli._setup_tables
    for setup, rows in ((1, {"no-signaling"}),
                        (-1, {"rotation-robustness"})):
        def mutant(u, setup=setup):
            tables = setup_tables(u)
            tables[setup, 0, 0, 0] -= 1e-9
            tables[setup, 0, 1, 0] += 1e-9
            return tables

        monkeypatch.setattr(cli, "_setup_tables", mutant)
        assert {r.name for r in run_verify_suite() if not r.passed} == rows, setup


def test_verify_suite_draws_each_rotation_once(monkeypatch):
    # Each randomized row checks its own rotations: no seed reaches
    # sample_su2_batch twice in one suite, in verify's own draws or in the
    # setups _draw_setups draws.
    seen = []

    def spy(seeds, *rest):
        seen.extend(np.asarray(seeds).ravel().tolist())
        return sample_su2_batch(seeds, *rest)

    for module in (cli, experiment):
        monkeypatch.setattr(module, "sample_su2_batch", spy)
    for seed in (0, 2**64 - 1):
        seen.clear()
        assert all(r.passed for r in run_verify_suite(seed=seed))
        assert len(seen) == 3 * cli.INVARIANCE_SAMPLES + 4 * (1 + cli.ROBUSTNESS_SAMPLES)
        assert len(set(seen)) == len(seen), seed


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_invariance_norms_are_numpys_row_norms(monkeypatch, seed):
    # The invariance rows take their 400 and 100 deviation norms in one
    # stacked matmul each; every norm must keep np.linalg.norm's bits on
    # verify's own deviation arrays (eta's as its 16x16 matrix).  An axis=
    # norm, or the same matmul on contiguous copies of the real and
    # imaginary parts, sums in another order and differs here.
    seen, row_norms = [], cli._row_norms
    monkeypatch.setattr(cli, "_row_norms", lambda d: seen.append((d, row_norms(d))) or seen[-1][1])
    assert all(r.passed for r in run_verify_suite(seed=seed))
    assert [d.shape for d, _ in seen] == [(4 * cli.INVARIANCE_SAMPLES, 16),
                                          (cli.INVARIANCE_SAMPLES, 256)]
    for d, norms in seen:
        want = [np.linalg.norm(row.reshape(-1, 16) if row.size == 256 else row) for row in d]
        assert norms.tobytes() == np.array(want).tobytes()


def test_verify_suite_memory_peak():
    # invariance-eta-pairs sets the peak: P_a @ grid @ P_b^T on 100 rotation
    # pairs holds P_a @ grid, Bob's 100 16x16 powers P_b and the product,
    # 400 KiB each, over the rest of the suite's 115 KiB.  It traces
    # 1313 KiB (numpy 2.4).
    run_verify_suite()
    tracemalloc.start()
    try:
        run_verify_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_psi_sign_flip_fails_the_exact_rows(monkeypatch):
    # psi's integer kets are phi's under qstate's 2<->3 transpose.  Flip one
    # sign of psi1 where psi0 is 0, so psi stays an orthonormal pair and G a
    # PVM: an amplitude 2/sqrt(12) moves by twice itself.  The pair's Gram
    # matrix is unchanged, but the flipped ket leaves the spin-zero sector,
    # and rotations move it.  The amplitudes are built at import, so psi's
    # amplitudes are rebuilt from the flip.
    kets = cli.INTEGER_KETS.copy()
    psi = kets[1]
    psi[1, int(np.flatnonzero(psi[1] * (psi[0] == 0))[0])] *= -1
    monkeypatch.setattr(cli, "INTEGER_KETS", kets)
    monkeypatch.setattr(cli, "PAIRS", kets / np.sqrt([[4], [12]]) + 0j)
    rows = {r.name: r for r in run_verify_suite()}
    assert rows["state-gram"].passed
    assert rows["invariance-generators"].deviation == 4.0
    assert rows["invariance-phi-psi"].deviation == pytest.approx(1.63, abs=0.01)
    assert {"invariance-generators", "invariance-phi-psi"} <= {
        name for name, r in rows.items() if not r.passed}


def test_verify_identity_rows_read_the_kernel(tmp_path, capsys, monkeypatch):
    # verify compares the canonical kernel tables with the exact rationals
    # once, in exact-tables, whose 36 cells hold the paper's four identities;
    # zero-outcome-mass reads the 0 label's cells at a tighter bound.  report
    # prints the rationals and never calls the kernel.
    assert main(["report", "--format", "json", "--out", str(tmp_path / "before")]) == EXIT_OK
    kernel = experiment._setup_tables
    # In the identity setup's tables only, move 1e-9 of mass from the pair's
    # (-1, -1) cell into one of its zero cells; (0, 2) is on the 0 label.
    for k, cell, row in ((0, (1, 1), "exact-tables"), (1, (0, 1), "exact-tables"),
                         (0, (0, 2), "zero-outcome-mass")):
        def mutant(u, k=k, cell=cell):
            tables = kernel(u)
            identity = (u == np.eye(2)).all(axis=(1, 2, 3))
            tables[identity, k, 0, 0] -= 1e-9
            tables[identity, k, cell[0], cell[1]] += 1e-9
            return tables

        monkeypatch.setattr(cli, "_setup_tables", mutant)
        monkeypatch.setattr(experiment, "_setup_tables", mutant)
        rows = {r.name: r for r in run_verify_suite()}
        failing = {name for name, r in rows.items() if not r.passed}
        # The mutant also leaks into the marginals and off the rotated tables.
        assert failing == {row, "exact-tables", "no-signaling", "rotation-robustness"}, row
        assert rows[row].deviation == pytest.approx(1e-9)
        assert rows["exact-tables"].deviation == pytest.approx(1e-9)
        out = tmp_path / row
        assert main(["report", "--format", "json", "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").read_bytes() == (tmp_path / "before" / "report.json").read_bytes()
    capsys.readouterr()


def test_printed_exact_cells_are_floats_of_the_rationals(tmp_path, capsys):
    # Every exact cell that report and sample print is the float of its
    # Fraction, bit for bit, and the 23 cells that are exactly 0 read 0.0.
    def exact(pair, i, j):
        return float(ETA_BORN_TABLES[SETTING_PAIRS.index(pair), i, j]) if max(i, j) < 2 else 0.0

    assert main(["report", "--format", "json", "--out", str(tmp_path)]) == EXIT_OK
    assert main(["sample", "--trials", "2000", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    stats = json.loads((tmp_path / "stats.json").read_text())
    tables, pairs = report["exact_behavior"]["tables"], stats["stats"]["setting_pairs"]
    assert set(tables) == set(pairs) == {"FF", "FG", "GF", "GG"}
    cells = [(pair, i, j) for pair in tables for i in range(3) for j in range(3)]
    assert sum(exact(*cell) == 0.0 for cell in cells) == 23
    for pair, i, j in cells:
        want = exact(pair, i, j)
        # repr tells every bit apart, -0.0 from 0.0 included.
        assert repr(tables[pair][i][j]) == repr(pairs[pair]["exact"][i][j]) == repr(want)
        deviation = abs(pairs[pair]["empirical"][i][j] - want)
        assert repr(pairs[pair]["abs_deviation"][i][j]) == repr(deviation)
    chain = {"hardy_fraction": float(Fraction(9, 112)), "cond_ab": 1.0, "cond_ba": 1.0,
             "joint_ff": 0.0}
    assert report["inference_chain"] == stats["audit"]["exact"] == chain


def test_invariance_generators_row_is_exact(monkeypatch):
    # The su(2) check is integer arithmetic: exactly 0 against tolerance 0,
    # whatever --tolerance says.
    row = {r.name: r for r in run_verify_suite(tolerance=1e-16)}["invariance-generators"]
    assert (row.deviation, row.tolerance, row.passed) == (0.0, 0.0, True)
    # One flipped sign of phi1 leaves the spin-zero sector.
    kets = cli.INTEGER_KETS.copy()
    kets[0, 1, int(np.flatnonzero(kets[0, 1])[0])] *= -1
    monkeypatch.setattr(cli, "INTEGER_KETS", kets)
    row = {r.name: r for r in run_verify_suite()}["invariance-generators"]
    assert row.deviation == 4.0 and not row.passed


def test_protocol_rows_are_exact(monkeypatch):
    # The protocol's integer eigenbasis against the integer kets: exactly 0
    # against tolerance 0, whatever --tolerance says.
    rows = {r.name: r for r in run_verify_suite(tolerance=1e-16)}
    for name in ("protocol-partition", "protocol-pvm-agreement"):
        assert (rows[name].deviation, rows[name].tolerance, rows[name].passed) == (0.0, 0.0, True)
    assert rows["protocol-partition"].detail == "4 strings map to -1, 12 to +1, per setting"
    # Mutants of F's protocol: its first -1 and first +1 strings swapped, and
    # G's rows in F's place under F's labels.
    labels, ints = cli.PROTOCOL_LABELS, cli.PROTOCOL_INTEGER_ROWS
    swapped = labels.copy()
    minus, plus = (int(np.flatnonzero(labels[0] == label)[0]) for label in (-1, +1))
    swapped[0, [minus, plus]] = +1, -1
    for mutant, pvm_deviation in (((swapped, ints), 4.0), ((labels, ints[[1, 1]]), 20.0)):
        monkeypatch.setattr(cli, "PROTOCOL_LABELS", mutant[0])
        monkeypatch.setattr(cli, "PROTOCOL_INTEGER_ROWS", mutant[1])
        rows = {r.name: r for r in run_verify_suite()}
        assert rows["protocol-pvm-agreement"].deviation == pvm_deviation
        assert not rows["protocol-pvm-agreement"].passed
        # Both keep 4 strings on -1, so the partition row cannot see them.
        assert rows["protocol-partition"].passed


def test_verify_command_exit_zero(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_below_floating_floor_fails(capsys):
    # 1e-16 is under the double-precision floor for these identities.
    assert main(["verify", "--tolerance", "1e-16"]) == EXIT_CHECK_FAILURE
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "first failing check" in captured.err


def test_state_gram_row_is_exact(monkeypatch):
    # K K^T = diag(n) for both pairs is integer arithmetic: exactly 0 against
    # tolerance 0, whatever --tolerance says.
    row = {r.name: r for r in run_verify_suite(tolerance=1e-16)}["state-gram"]
    assert (row.deviation, row.tolerance, row.passed) == (0.0, 0.0, True)
    # Doubling one integer of phi1 moves its squared norm off the stated 12.
    kets = cli.INTEGER_KETS.copy()
    kets[0, 1, int(np.flatnonzero(kets[0, 1])[0])] *= 2
    monkeypatch.setattr(cli, "INTEGER_KETS", kets)
    row = {r.name: r for r in run_verify_suite()}["state-gram"]
    assert row.deviation == 12.0 and not row.passed


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_verify_non_finite_tolerance_is_usage_error(value, capsys):
    # inf would pass every check and nan fail every check, whatever the deviations.
    assert main(["verify", "--tolerance", value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--tolerance" in captured.err
    assert "checks passed" not in captured.out


def test_verify_uses_seed(tmp_path, capsys, monkeypatch):
    # Every randomized check draws from the seed, so each one's deviation moves
    # with it.  A deviation is a max of rounding errors a few ulps wide, so two
    # seeds can tie; a check that ignores the seed reads the same at all three.
    # protocol-pvm-agreement draws nothing: it is an exact integer identity.
    # rotation-robustness's max over 720 cells sits at 2 ulps of 1/2 for
    # most seeds, so the setups are checked instead: the one kernel call
    # tables the identity, then the setups drawn from split_seed(seed, 77)
    # and split_seed(seed, 1000 + k), each a Haar draw per setup tag.
    randomized = ("invariance-phi-psi", "invariance-eta-pairs")
    tabled, setup_tables = [], cli._setup_tables
    monkeypatch.setattr(cli, "_setup_tables", lambda u: tabled.append(u) or setup_tables(u))
    seeds = ("1", "0x2A", "7")
    deviations = {}
    for seed in seeds:
        tabled.clear()
        out = tmp_path / seed
        assert main(["verify", "--seed", seed, "--format", "json", "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "verify.json").read_text())
        assert payload["metadata"]["root_seed"] == str(parse_seed(seed))
        checks = {row["name"]: row["deviation"] for row in payload["checks"]}
        deviations[seed] = {name: checks[name] for name in (*randomized, "protocol-pvm-agreement")}
        drawn = [sample_su2_batch(split_seed(split_seed(parse_seed(seed), key),
                                             experiment._SETUP_TAGS))
                 for key in (77, *range(1000, 1000 + cli.ROBUSTNESS_SAMPLES))]
        assert len(tabled) == 1 and np.array_equal(tabled[0], [[np.eye(2)] * 4, *drawn])
    capsys.readouterr()
    for name in randomized:
        assert len({deviations[seed][name] for seed in seeds}) > 1, name
    assert {deviations[seed]["protocol-pvm-agreement"] for seed in seeds} == {0.0}


def test_verify_json_format(tmp_path, capsys):
    assert main(["verify", "--format", "json", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["metadata"]["version"] == __version__
    assert all(row["passed"] for row in payload["checks"])


def test_sample_writes_reproducible_files(tmp_path, capsys):
    args = ["sample", "--trials", "4000", "--seed", "0xABCD", "--policy", "uniform"]
    assert main(args + ["--out", str(tmp_path / "one")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "two")]) == EXIT_OK
    capsys.readouterr()
    csv1 = (tmp_path / "one" / "trials.csv").read_bytes()
    csv2 = (tmp_path / "two" / "trials.csv").read_bytes()
    assert csv1 == csv2
    stats1 = (tmp_path / "one" / "stats.json").read_bytes()
    assert stats1 == (tmp_path / "two" / "stats.json").read_bytes()

    lines = csv1.decode().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# version:") for l in meta)
    assert any(l.startswith("# root_seed: 43981") for l in meta)
    assert any(l.startswith("# config_hash:") for l in meta)
    header_at = len(meta)
    assert lines[header_at] == "trial,setting_a,setting_b,seed_a,seed_b,outcome_a,outcome_b"
    assert len(lines) == header_at + 1 + 4000
    first = lines[header_at + 1].split(",")
    assert first[0] == "0"
    assert first[1] in "FG" and first[2] in "FG"
    assert first[5] in ("-1", "1") and first[6] in ("-1", "1")


@pytest.mark.parametrize("argv", [
    ["--trials", "4097", "--seed", "1"],
    ["--measurement", "protocol", "--trials", "2049", "--seed", "1"],
    ["--fixed-rotations", "--policy", "cycle", "--trials", "300", "--seed", "0xFEEDFACE"],
    ["--policy", "fixed:GF", "--trials", "300", "--seed", "18446744073709551615"],
], ids=" ".join)
def test_written_rows_replay_from_their_metadata(tmp_path, capsys, argv):
    # The replay CI runs on the console script's trials.csv files; one
    # changed digit of one row fails it.
    assert main(["sample", *argv, "--out", str(tmp_path)]) == 0
    path = tmp_path / "trials.csv"
    assert oracles.replay_csv(path) == int(argv[argv.index("--trials") + 1])
    *rows, last = path.read_text().splitlines()
    *fields, outcome_b = last.split(",")
    path.write_text("\n".join([*rows, ",".join([*fields, str(-int(outcome_b))])]) + "\n")
    with pytest.raises(AssertionError):
        oracles.replay_csv(path)


def test_sample_fixed_policy_stats(tmp_path, capsys):
    assert main(["sample", "--trials", "2000", "--seed", "9", "--policy", "fixed:GG",
                 "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "hardy fraction" in out
    payload = json.loads((tmp_path / "stats.json").read_text())
    pairs = payload["stats"]["setting_pairs"]
    assert pairs["GG"]["trials"] == 2000
    assert pairs["FF"]["trials"] == 0
    assert payload["audit"]["contradiction_witnessed"] is True


def test_sample_fixed_rotations_reports_matrices(tmp_path, capsys):
    assert main(["sample", "--trials", "500", "--seed", "3", "--fixed-rotations",
                 "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((tmp_path / "stats.json").read_text())
    rots = payload["fixed_rotations"]
    names = ["alice_F", "alice_G", "bob_F", "bob_G"]
    assert list(rots) == [*names, "seeds"]
    seeds = [split_seed(3, tag) for tag in experiment._SETUP_TAGS.tolist()]
    assert rots["seeds"] == seeds
    # Each matrix as [re, im] rows, bit-equal to its seed's Haar draw; JSON
    # floats round-trip exactly.
    for name, seed in zip(names, seeds):
        matrix = np.array([[complex(re, im) for re, im in row] for row in rots[name]])
        assert matrix.tobytes() == sample_su2_batch(np.array([seed], np.uint64))[0].tobytes()
        assert np.abs(matrix @ matrix.conj().T - np.eye(2)).max() < 1e-12


def test_lhv_audit_default(tmp_path, capsys):
    assert main(["lhv-audit", "--max-hardy", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out
    assert "certificate verification: ok" in out
    assert "0 (local models) vs 9/112 (quantum)" in out
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["feasible"] is False and cert["verified"] is True
    weights = {w["constraint"]: w["weight"] for w in cert["farkas"]}
    assert weights == {"ff_zero": "-1", "gb_implies_fa": "-1", "ga_implies_fb": "-1",
                       "gg_hardy": "1", "no_zero_outcome": "0", "normalization": "0"}
    derivation = (tmp_path / "derivation.txt").read_text()
    assert [line.split()[:2] for line in derivation.splitlines() if "step" in line] == [
        ["step", "1"], ["step", "2"], ["step", "3"]]


# sha256 of the files the exact commands write.  They hold rationals, floats
# of rationals and deterministic metadata only, so the digests hold on every
# platform; verify.json is left out, as its float deviations are not exact.
GOLDEN_EXACT_FILES = {
    ("lhv-audit", "--max-hardy"): {
        "certificate.json": "379c16fe22222d4073d52414f8875b481f04f6dd082c47a081d73e550e27b9e6",
        "derivation.txt": "444245d18ef2e68479effb0405d6e3c682b1d0c852bf5bad3b280f87c2f0c224",
    },
    ("lhv-audit", "--drop-constraint", "ff_zero"): {
        "certificate.json": "121e9a348b2d8b83f355148b2ea014db7d31c13b8f6e14d5feb5f8f956a264a6",
        "derivation.txt": "6a2ede45f82fd33a2d1b10cad5c3796daabd5de5f05e1d895855db59d9032eef",
    },
    ("report", "--format", "json"): {
        "report.json": "a69a692fdac246bc387e01825bd1345f753d05009c72ff58ec6c4b4a383c4ecc",
    },
    ("report", "--format", "csv"): {
        "report.csv": "dec7a4ce7f2afae286c99185bfcd6b96ad1a0732bd20d97ab22b34c8e8e6f529",
    },
    ("report", "--format", "text"): {
        "report.txt": "16d5c1925bb3b74f2aafb1291f127b4d54c5f68b2e010a8d40c50cb38ce52374",
    },
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_EXACT_FILES), ids=" ".join)
def test_exact_outputs_golden(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == GOLDEN_EXACT_FILES[argv]


def test_lhv_audit_json_format(tmp_path, capsys):
    assert main(["lhv-audit", "--max-hardy", "--format", "json",
                 "--out", str(tmp_path)]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads((tmp_path / "certificate.json").read_text())
    assert printed["feasible"] is False and printed["verified"] is True
    assert set(printed["metadata"]) == {"version", "root_seed", "config_hash"}
    assert printed["max_hardy_fraction"] == "0"


def test_lhv_audit_csv_is_usage_error(capsys):
    assert main(["lhv-audit", "--format", "csv"]) == EXIT_USAGE
    assert "csv" in capsys.readouterr().err


def test_sample_csv_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["sample", "--trials", "10", "--format", "csv", "--out", str(out)]) == EXIT_USAGE
    assert "csv" in capsys.readouterr().err
    assert not out.exists()


def test_lhv_audit_drop_constraint(capsys):
    assert main(["lhv-audit", "--drop-constraint", "ff_zero"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FEASIBLE" in out
    assert "9/112" in out


def test_lhv_audit_unknown_constraint(capsys):
    assert main(["lhv-audit", "--drop-constraint", "nonsense"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown constraint" in err


def test_report_json(tmp_path, capsys):
    assert main(["report", "--format", "json", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["lhv"]["feasible"] is False
    assert payload["lhv"]["max_hardy_fraction"] == "0"
    assert payload["contradiction_witnessed"] is True
    assert payload["classifiers"]["F"]["0101"] == -1
    # Each setting labels all 16 strings, in string order, by the oracle's
    # literal -1 sets.
    for tag, minus in zip("FG", oracles.PROTOCOL_MINUS):
        strings = [format(i, "04b") for i in range(16)]
        assert list(payload["classifiers"][tag]) == strings
        assert payload["classifiers"][tag] == {s: -1 if s in minus else 1 for s in strings}
    gg = payload["exact_behavior"]["tables"]["GG"]
    assert abs(gg[1][1] - 9.0 / 112.0) < 1e-12


def test_report_text(capsys):
    assert main(["report"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "9/112" in out
    assert "contradiction witnessed" in out


def test_report_csv(capsys):
    assert main(["report", "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "setting_pair,outcome_a,outcome_b,probability" in out
    assert "GG,1,1,0.080357142857143" in out


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFBELL_OUT", str(tmp_path / "envdir"))
    assert main(["report", "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "envdir" / "report.json").exists()


def test_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    code = main(["sample", "--trials", "10", "--out", str(blocker)])
    assert code == EXIT_IO
    assert "I/O error" in capsys.readouterr().err
