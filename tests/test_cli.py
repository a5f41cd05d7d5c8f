"""Command-line behavior: flags, files, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from scipy import stats

from multamp.cli import (
    EXIT_CONFIG,
    EXIT_MEMORY,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_OVERFLOW,
    main,
)

LATTICE = ["--rows", "2", "--cols", "2", "--beta-j", "0.1"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- plan -----------------------------------------------------------------

def test_plan_reports_register_widths(tmp_path, capsys):
    code, out, _ = run(["plan", "--eps", "0.001", "--delta", "0.001",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert "d = 13" in out
    data = json.loads((tmp_path / "plan.json").read_text())
    assert data["d"] == 13
    assert data["controlled_exponent_qubits"] == 26
    assert data["comparator_bits_per_register"] == 10
    assert data["comparator_ancilla_qubits"] == 31
    # subnormal cutoffs, where 1 / eps overflows: the smallest comp with 2**-comp <= eps
    for eps, comp in (("1e-310", 1030), ("5e-324", 1074)):
        code, out, _ = run(["plan", "--eps", eps, "--delta", "0.01"], capsys)
        assert code == EXIT_OK
        assert f"comparator alternative: {comp} bits per register" in out


def test_plan_never_prints_a_width_the_builders_refuse(capsys):
    # -ln(0.5) / 1 < 1: a zero-width register would be refused ("d must be >= 1")
    code, out, _ = run(["plan", "--eps", "0.5", "--delta", "1"], capsys)
    assert code == EXIT_OK
    assert out.startswith("d = 1 (direct 1 exponent qubits, controlled 2)")
    code, _, _ = run(["synth", *LATTICE, "--d", "1"], capsys)
    assert code == EXIT_OVERFLOW  # the builders take d = 1; this lattice needs more


def test_plan_requires_both_tolerances(capsys):
    code, _, err = run(["plan", "--eps", "0.001"], capsys)
    assert code == EXIT_CONFIG
    assert "delta" in err
    for delta in ("nan", "inf", "1e-320"):  # 1e-320: -ln(eps) / delta overflows
        code, _, err = run(["plan", "--eps", "0.001", "--delta", delta], capsys)
        assert code == EXIT_CONFIG
        assert "rel_prec_delta" in err


# --- synth -----------------------------------------------------------------

def test_synth_writes_diagnostics(tmp_path, capsys):
    code, out, _ = run(["synth", *LATTICE, "--variant", "direct",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["total_qubits"] == 8
    assert data["nu"] == 2
    assert abs(data["u_sq"] - 0.1675) < 0.0005
    assert abs(data["measured_postamp"] - 0.738) < 0.002


def test_synth_exit_codes(capsys):
    code, _, err = run(["synth", "--rows", "2", "--cols", "2"], capsys)
    assert code == EXIT_CONFIG  # no coupling given
    code, _, err = run(["synth", *LATTICE, "--d", "2"], capsys)
    assert code == EXIT_OVERFLOW
    assert "d" in err
    code, _, err = run(["synth", "--rows", "4", "--cols", "4",
                        "--beta-j", "0.1", "--variant", "controlled"], capsys)
    assert code == EXIT_MEMORY
    assert "--allow-large" in err
    code, _, _ = run(["synth", *LATTICE, "--beta-rel-critical", "1.0"], capsys)
    assert code == EXIT_CONFIG  # mutually exclusive couplings
    # a state of 2**1104 amplitudes is refused, its size stated exactly
    code, _, err = run(["synth", *LATTICE, "--d", "1100"], capsys)
    assert code == EXIT_MEMORY
    assert "1104 qubits need a" in err
    # past the memory budget the allocation itself is refused; the plan's
    # gamma**(-2**k) for k >= 1024 must not overflow on the way there
    for width in ("60", "1030"):
        code, _, err = run(["synth", *LATTICE, "--d", width, "--allow-large"], capsys)
        assert code == EXIT_CONFIG
        assert "Maximum allowed dimension exceeded" in err
    for width in ("0", "-1"):
        code, _, err = run(["synth", *LATTICE, "--d", width], capsys)
        assert code == EXIT_CONFIG
        assert f"d={width}" in err
    # gamma = exp(2 beta_j) overflows a float past beta_j ~ 354.89
    for coupling in (["--beta-j", "400"], ["--beta-j", "inf"], ["--beta-rel-critical", "inf"]):
        code, _, err = run(["synth", "--rows", "2", "--cols", "2", *coupling], capsys)
        assert code == EXIT_CONFIG
        assert "beta" in err


SAMPLING_PEAKS = [([], "0.50", "0.52"),
                  (["--single-precision"], "0.25", "0.27"),
                  (["--shots", str(1 << 30)], "0.50", "0.72")]


@pytest.mark.parametrize("flags, buffer, peak", SAMPLING_PEAKS)
def test_memory_refusal_states_the_sampling_peak(flags, buffer, peak, capsys):
    # 4x4 controlled is a 27-qubit circuit simulated on 26 qubits (no idle
    # ancilla), 8 B (float64) or 4 B (float32) each; sampling the E == 0 slice
    # adds 4 MiB of block scratch and up to 112 B per outcome, of which there
    # are at most min(shots, 2**21)
    code, _, err = run(["sample", "--rows", "4", "--cols", "4", "--beta-j", "0.1",
                        "--variant", "controlled", *flags], capsys)
    assert code == EXIT_MEMORY
    assert f"26 qubits need a {buffer} GiB amplitude buffer and peak at {peak} GiB" in err


@pytest.mark.parametrize("flags, buffer, peak", SAMPLING_PEAKS)
def test_memory_refusal_is_the_same_on_a_many_cpu_host(flags, buffer, peak, monkeypatch, capsys):
    # the sampling peak is a bound on one block's scratch, whatever the CPUs this process may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code, _, err = run(["sample", "--rows", "4", "--cols", "4", "--beta-j", "0.1",
                        "--variant", "controlled", *flags], capsys)
    assert code == EXIT_MEMORY
    assert f"26 qubits need a {buffer} GiB amplitude buffer and peak at {peak} GiB" in err


def test_memory_refusal_of_synth_names_the_buffer_alone(capsys):
    code, _, err = run(["synth", "--rows", "4", "--cols", "4", "--beta-j", "0.1",
                        "--variant", "controlled"], capsys)
    assert code == EXIT_MEMORY
    assert "26 qubits need a 0.50 GiB amplitude buffer; rerun with --allow-large" in err


def test_memory_check_sizes_the_circuit_that_runs(capsys):
    # with --enforce-zero, 3x6 gets d = 5 so that no exponent is the saturation value 2**4 - 1:
    # the refusal counts that circuit's 18 + 5 + 5 + 1 qubits, not the 27 of d = 4
    code, _, err = run(["synth", "--rows", "3", "--cols", "6", "--beta-j", "0.05",
                        "--variant", "controlled", "--enforce-zero"], capsys)
    assert code == EXIT_MEMORY
    assert "29 qubits need a 4.00 GiB amplitude buffer" in err
    code, _, err = run(["synth", "--rows", "3", "--cols", "6", "--beta-j", "0.05",
                        "--enforce-zero", "--d", "4"], capsys)
    assert code == EXIT_OVERFLOW
    assert "max Sigma/2 = 15 is 2**d - 1" in err and "need d >= 5" in err


def test_memory_check_builds_no_gates(monkeypatch):
    # the check reads the layout off the d the run will use, without building the circuit
    from multamp import cli, ising, transduce

    cases = [(ising.IsingLattice(rows, cols, 0.05), variant, None, flag)
             for rows, cols in ((2, 3), (3, 6)) for variant in transduce.VARIANTS
             for flag in (False, True)]
    layouts = [ising.build_boltzmann_synthesis(*case)[0].layout for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the memory check built a circuit")

    monkeypatch.setattr(ising, "build_synthesis", refuse)
    assert [cli._state_layout(ising.boltzmann_target(lattice, d, flag), variant, flag)
            for lattice, variant, d, flag in cases] == layouts


def test_synth_rejects_unknown_variant():
    # synth writes only run.json, so it takes no --format either
    for flags in (["--variant", "sideways"], ["--format", "json"]):
        with pytest.raises(SystemExit) as info:
            main(["synth", *LATTICE, *flags])
        assert info.value.code == 2  # argparse usage error


# --- sample -----------------------------------------------------------------

def test_sample_postselect_outputs(tmp_path, capsys):
    code, out, _ = run(["sample", *LATTICE, "--shots", "4000", "--seed", "9",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    run_data = json.loads((tmp_path / "run.json").read_text())
    assert run_data["keep"] == "postselect"
    assert run_data["shots"] == 4000
    assert 0.6 < run_data["efficiency"] < 0.85
    header, *rows = (tmp_path / "sigma_hist.csv").read_text().splitlines()
    assert header == "sigma,observed,observed_per_state,theory"
    assert [int(r.split(",")[0]) for r in rows] == [0, 4, 8]
    kept = run_data["kept_shots"]
    assert sum(int(r.split(",")[1]) for r in rows) == kept
    mag_header, *mag_rows = (tmp_path / "magnetization_hist.csv").read_text().splitlines()
    assert mag_header == "m,probability"
    assert [int(r.split(",")[0]) for r in mag_rows] == [-4, -2, 0, 2, 4]
    total = sum(float(r.split(",")[1]) for r in mag_rows)
    assert abs(total - 1.0) < 1e-9


def test_sample_conditional_keeps_every_shot(tmp_path, capsys):
    code, out, _ = run(["sample", *LATTICE, "--keep", "conditional",
                        "--shots", "2000", "--seed", "4",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["kept_shots"] == 2000
    assert data["efficiency"] is None
    assert data["sigma_fit"]["p_value"] > 0.001


def test_sample_json_format(tmp_path, capsys):
    code, _, _ = run(["sample", *LATTICE, "--shots", "1000", "--seed", "2",
                      "--format", "json", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "sigma_hist.json").read_text())
    assert [row["sigma"] for row in rows] == [0, 4, 8]


def test_sample_with_one_pooled_bin_reports_no_chi2_test(tmp_path, capsys):
    # 9 kept shots pool into one sigma bin: no degrees of freedom, so no p-value
    code, out, _ = run(["sample", *LATTICE, "--shots", "10", "--seed", "3",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    fit = json.loads((tmp_path / "run.json").read_text())["sigma_fit"]
    assert (fit["dof"], fit["p_value"]) == (0, None)
    assert "no chi2 test" in out


def test_sample_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    argv = ["sample", *LATTICE, "--shots", "3000", "--seed", "31"]
    assert run([*argv, "--out", str(first)], capsys)[0] == EXIT_OK
    assert run([*argv, "--out", str(second)], capsys)[0] == EXIT_OK
    for name in ("run.json", "sigma_hist.csv", "magnetization_hist.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _files(path) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}


@pytest.mark.parametrize("before, after, shrinks", [
    (["sample", "--rows", "3", "--cols", "3", "--beta-j", "0.1", "--shots", "3000"],
     ["sample", *LATTICE, "--shots", "3000"], "sigma_hist.csv"),
    (["table1", "--sizes", "2,3", "--shots", "500"], ["table1", "--sizes", "2", "--shots", "500"],
     "table1.csv"),
])
def test_a_rerun_into_the_same_directory_leaves_no_stale_bytes(before, after, shrinks, tmp_path,
                                                              capsys):
    # outputs are rewritten in place and cut at their new end: the rerun's
    # files equal, byte for byte, the same run written into a fresh directory
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run([*before, "--out", str(reused)], capsys)[0] == EXIT_OK
    longer = _files(reused)
    assert run([*after, "--out", str(reused)], capsys)[0] == EXIT_OK
    assert run([*after, "--out", str(fresh)], capsys)[0] == EXIT_OK
    assert _files(reused) == _files(fresh)
    assert len(longer[shrinks]) > len((fresh / shrinks).read_bytes())


def test_json_output_over_a_longer_file_leaves_no_stale_bytes(tmp_path, capsys):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    reused.mkdir()
    (reused / "sigma_hist.json").write_bytes(b"\x00garbage}]\n" * 4096)
    argv = ["sample", *LATTICE, "--shots", "1000", "--seed", "2", "--format", "json"]
    assert run([*argv, "--out", str(reused)], capsys)[0] == EXIT_OK
    assert run([*argv, "--out", str(fresh)], capsys)[0] == EXIT_OK
    assert _files(reused) == _files(fresh)


def test_output_files_are_created_with_the_mode_open_gives(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        assert run(["plan", "--eps", "0.01", "--delta", "0.1", "--out", str(tmp_path)],
                   capsys)[0] == EXIT_OK
        with open(tmp_path / "by_open", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "plan.json").stat().st_mode & 0o777 == 0o666 & ~0o027
    assert (tmp_path / "by_open").stat().st_mode & 0o777 == 0o666 & ~0o027


# kept_shots, the observed column of sigma_hist.csv, the sigma_fit of
# run.json and the probability column of magnetization_hist.csv for
# `sample --rows S --cols S --beta-j 0.1 --shots 4096 --seed 23`: pinned
# fixed-seed output, so a refactor of the sampling or counting path cannot
# move a draw or a digit unnoticed (a rerun compared with itself cannot see that)
GOLDEN_COUNTS = {
    ("2", "direct", "postselect"): (3006, [769, 2080, 157]),
    ("2", "direct", "conditional"): (4096, [1045, 2848, 203]),
    ("2", "controlled", "postselect"): (2185, [566, 1488, 131]),
    ("2", "controlled", "conditional"): (4096, [1066, 2817, 213]),
    ("3", "direct", "postselect"): (3934, [87, 329, 634, 1663, 835, 386]),
    ("3", "direct", "conditional"): (4096, [83, 340, 588, 1738, 931, 416]),
    ("3", "controlled", "postselect"): (2639, [44, 220, 425, 1155, 548, 247]),
    ("3", "controlled", "conditional"): (4096, [91, 345, 661, 1774, 837, 388]),
}

# (chi2_stat, dof, p_value, tvd)
GOLDEN_SIGMA_FIT = {
    ("2", "direct", "postselect"):
        (0.017446311462573753, 2, 0.9913147806033447, 0.0007286625064363006),
    ("2", "direct", "conditional"):
        (0.5070495080921172, 2, 0.7760605340491602, 0.0036594753118106595),
    ("2", "controlled", "postselect"):
        (3.2180149289307116, 2, 0.20008610812495312, 0.010646159699631008),
    ("2", "controlled", "conditional"):
        (0.3128093106112221, 2, 0.855213053843085, 0.0039088840631893405),
    ("3", "direct", "postselect"):
        (2.0455062063989953, 5, 0.8428132395510215, 0.01010124588477584),
    ("3", "direct", "conditional"):
        (11.383537763196973, 5, 0.044284077437902934, 0.020677991755211872),
    ("3", "controlled", "postselect"):
        (5.1279388401776, 5, 0.4004668803901876, 0.015058297232398338),
    ("3", "controlled", "conditional"):
        (2.9172314382300097, 5, 0.712744657980487, 0.01160098247181815),
}

GOLDEN_MAGNETIZATION = {
    ("2", "direct", "postselect"): [0.12907518296739853, 0.229208250166334,
        0.2930805056553559, 0.22188955422488357, 0.12674650698602793],
    ("2", "direct", "conditional"): [0.1318359375, 0.234375, 0.2744140625,
        0.236083984375, 0.123291015625],
    ("2", "controlled", "postselect"): [0.12906178489702516, 0.23615560640732267,
        0.28878718535469106, 0.2160183066361556, 0.1299771167048055],
    ("2", "controlled", "conditional"): [0.1318359375, 0.2255859375, 0.28271484375,
        0.2314453125, 0.12841796875],
    ("3", "direct", "postselect"): [0.011438739196746314, 0.041179461108286734,
        0.09633960345704118, 0.1639552618200305, 0.1942043721403152, 0.19089984748347738,
        0.14743263853584138, 0.10142348754448399, 0.04245043213014743, 0.010676156583629894],
    ("3", "direct", "conditional"): [0.010986328125, 0.040771484375, 0.091064453125,
        0.155517578125, 0.206298828125, 0.1962890625, 0.1533203125, 0.09423828125,
        0.042236328125, 0.00927734375],
    ("3", "controlled", "postselect"): [0.008336491095111784, 0.04281924971580144,
        0.1125426297840091, 0.15270935960591134, 0.1887078438802577, 0.18643425539977265,
        0.16066691928760896, 0.0989010989010989, 0.04054566123531641, 0.008336491095111784],
    ("3", "controlled", "conditional"): [0.010986328125, 0.040771484375, 0.1025390625,
        0.160400390625, 0.189453125, 0.19580078125, 0.1494140625, 0.095947265625,
        0.04345703125, 0.01123046875],
}


@pytest.mark.parametrize("size,variant,keep", list(GOLDEN_COUNTS))
def test_sample_counts_match_the_recorded_values(size, variant, keep, tmp_path, capsys):
    argv = ["sample", "--rows", size, "--cols", size, "--beta-j", "0.1",
            "--variant", variant, "--keep", keep, "--shots", "4096", "--seed", "23",
            "--out", str(tmp_path)]
    assert run(argv, capsys)[0] == EXIT_OK
    data = json.loads((tmp_path / "run.json").read_text())
    rows = (tmp_path / "sigma_hist.csv").read_text().splitlines()
    assert rows[0].split(",")[:2] == ["sigma", "observed"]
    observed = [int(row.split(",")[1]) for row in rows[1:]]
    key = (size, variant, keep)
    assert (data["kept_shots"], observed) == GOLDEN_COUNTS[key]
    fit = data["sigma_fit"]
    assert (fit["chi2_stat"], fit["dof"], fit["p_value"], fit["tvd"]) == GOLDEN_SIGMA_FIT[key]
    rows = (tmp_path / "magnetization_hist.csv").read_text().splitlines()
    assert rows[0] == "m,probability"
    assert [float(row.split(",")[1]) for row in rows[1:]] == GOLDEN_MAGNETIZATION[key]


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("variant", ["direct", "controlled"])
def test_kept_sigma_histograms_follow_the_boltzmann_law_over_many_seeds(size, variant):
    # under the right law each seed's chi-square p-value of the kept Sigma
    # histogram is (close to) uniform on [0, 1]; a wrong kept slice, a
    # missing renormalization or a bias in the draws piles them up near 0
    from multamp import analysis, cli, ising

    lattice = ising.IsingLattice(size, size, 0.35)
    state, diag = ising.synthesize_boltzmann(lattice, variant=variant)
    reference = analysis.boltzmann_reference(lattice)
    layout = state.layout.without([diag.target_register])
    for keep in ("postselect", "conditional"):
        pvalues = []
        for seed in range(150):
            _, counts = cli._kept_draws(state, diag, keep, 2000, seed)
            sigma, _ = analysis.histograms(counts, layout, reference)
            pvalues.append(analysis.distribution_tests(sigma, reference.sigma_probability).p_value)
        assert stats.kstest(pvalues, "uniform").pvalue > 1e-3, keep


COMPLEX64_POSTAMP_TOL = 1e-5  # measured drift from complex128 is below 1e-6


@pytest.mark.parametrize("size", ["2", "3"])
def test_sample_single_precision_tracks_double(size, tmp_path, capsys):
    argv = ["sample", "--rows", size, "--cols", size, "--beta-j", "0.1", "--shots", "2000"]
    postamp = {}
    for flag in ([], ["--single-precision"]):
        out = tmp_path / ("single" if flag else "double")
        code, _, err = run([*argv, *flag, "--out", str(out)], capsys)
        assert code == EXIT_OK, err
        postamp[bool(flag)] = json.loads((out / "run.json").read_text())["measured_postamp"]
    assert abs(postamp[True] - postamp[False]) < COMPLEX64_POSTAMP_TOL


def test_sample_and_table1_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import raise ImportError
    import multamp

    src = os.path.dirname(os.path.dirname(multamp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    prelude = ("import sys; sys.modules['scipy'] = None; from multamp.cli import main; "
               "sys.exit(main(sys.argv[1:]))")
    for argv in (["sample", *LATTICE, "--shots", "4096", "--out", str(tmp_path)],
                 ["table1", "--sizes", "2"]):
        done = subprocess.run([sys.executable, "-c", prelude, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
    assert json.loads((tmp_path / "run.json").read_text())["sigma_fit"]["dof"] >= 1


def test_table1_single_precision_rows_pass(capsys):
    code, out, err = run(["table1", "--sizes", "2,3", "--shots", "20000",
                          "--single-precision"], capsys)
    assert code == EXIT_OK, err
    assert out.count("[ok]") == 4


@pytest.mark.parametrize("flag,value", [("--shots", "0"), ("--shots", "-3"), ("--seed", "-1"),
                                        ("--shots", str(2**63)), ("--shots", str(10**20))])
@pytest.mark.parametrize("command", [["sample", *LATTICE], ["table1", "--sizes", "2"]],
                         ids=["sample", "table1"])
def test_sample_rejects_bad_shots(command, flag, value, capsys):
    # numpy's binomial and multinomial draw int64 counts, so 2**63 - 1 is the most shots
    code, out, err = run([*command, flag, value], capsys)
    assert code == EXIT_CONFIG
    bound = ("at most 2**63 - 1" if int(value) > 0 else
             f">= {0 if flag == '--seed' else 1}")
    assert err == f"error: {flag} must be {bound}, got {value}\n"
    assert out == ""  # refused before any synthesis


def test_sample_reports_a_failed_allocation(monkeypatch, capsys):
    from multamp import cli

    message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

    def unaffordable(state, shots, seed, conditions=None):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sample", unaffordable)
    for keep in ("postselect", "conditional"):
        code, _, err = run(["sample", *LATTICE, "--keep", keep, "--shots", "100000000000"], capsys)
        assert code == EXIT_MEMORY
        assert err == f"error: {message}\n"


def test_sample_conditional_on_a_zero_weight_slice_exits_with_the_reason(monkeypatch, capsys):
    # no stock synthesis leaves the target slice empty, so it is emptied afterwards
    from multamp import cli

    synthesize = cli._synthesize

    def emptied(args, shots=0):
        lattice, state, diag = synthesize(args, shots)
        state.select({diag.target_register: 0})[...] = 0
        return lattice, state, diag

    monkeypatch.setattr(cli, "_synthesize", emptied)
    code, _, err = run(["sample", *LATTICE, "--keep", "conditional", "--shots", "100"], capsys)
    assert code == EXIT_CONFIG
    assert "zero-probability slice" in err


@pytest.mark.parametrize("postamp,kept", [(1.0 + 2e-16, 500), (-1e-17, 0)])
def test_sample_clamps_the_measured_postamp_into_zero_one(postamp, kept, monkeypatch, tmp_path,
                                                          capsys):
    # a slice weight rounded past 1 (or below 0) would make rng.binomial
    # raise; clamped, it keeps every shot (or none), and a run that keeps
    # none still writes run.json, with no fit and no histogram files
    from multamp import cli, ising

    synthesize = ising.synthesize_boltzmann

    def rounded(*args, **kwargs):
        state, diag = synthesize(*args, **kwargs)
        return state, dataclasses.replace(diag, measured_postamp=postamp)

    monkeypatch.setattr(ising, "synthesize_boltzmann", rounded)
    code, out, _ = run(["sample", *LATTICE, "--shots", "500", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    data = json.loads((tmp_path / "run.json").read_text())
    assert data["kept_shots"] == kept and data["efficiency"] == kept / 500
    assert (data["sigma_fit"] is None) == (kept == 0)
    assert (tmp_path / "sigma_hist.csv").exists() == (kept > 0)


# --- config files -----------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rows = 2\ncols = 2\nbeta_j = 0.1\n"
                   "variant = controlled\nshots = 500  # comment\n")
    code, out, _ = run(["synth", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert "qubits = 11" in out  # controlled layout from the file
    code, out, _ = run(["synth", "--config", str(cfg), "--variant", "direct"], capsys)
    assert code == EXIT_OK
    assert "qubits = 8" in out  # explicit flag wins
    with cfg.open("a") as fh:
        fh.write("enforce_zero = yes\nd = 4\n")
    code, out, _ = run(["synth", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert "qubits = 14" in out  # controlled, d = 4 and the z flag, all from the file
    code, out, _ = run(["synth", "--config", str(cfg), "--variant", "direct"], capsys)
    assert code == EXIT_OK
    assert "qubits = 10" in out


def test_config_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run(["synth", "--config", str(missing)], capsys)
    assert code == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("rows : 2\n")
    code, _, err = run(["synth", "--config", str(bad)], capsys)
    assert code == EXIT_CONFIG
    typo = tmp_path / "typo.cfg"
    typo.write_text("rosw = 2\n")
    code, _, err = run(["synth", "--config", str(typo)], capsys)
    assert code == EXIT_CONFIG
    assert "rosw" in err
    badvalue = tmp_path / "badvalue.cfg"
    badvalue.write_text("rows = two\n")
    code, _, err = run(["synth", "--config", str(badvalue)], capsys)
    assert code == EXIT_CONFIG
    # values are checked like the flags: on/off words and choices
    for line, key in [("enforce_zero = maybe", "enforce_zero"),
                      ("format = xml", "format"), ("keep = all", "keep")]:
        badvalue.write_text(f"{line}\n")
        code, _, err = run(["sample", *LATTICE, "--shots", "100",
                            "--config", str(badvalue), "--out", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert key in err


def test_config_values_do_not_reach_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = controlled\nkeep = conditional\nenforce_zero = yes\nshots = 300\n")
    code, _, _ = run(["sample", *LATTICE, "--config", str(cfg), "--out", str(tmp_path / "a")],
                     capsys)
    assert code == EXIT_OK
    code, _, _ = run(["sample", *LATTICE, "--out", str(tmp_path / "b")], capsys)
    assert code == EXIT_OK
    fields = ("variant", "keep", "shots", "total_qubits")
    with_file, after = (json.loads((tmp_path / name / "run.json").read_text())
                        for name in ("a", "b"))
    assert [with_file[k] for k in fields] == ["controlled", "conditional", 300, 12]
    assert [after[k] for k in fields] == ["direct", "postselect", 1 << 17, 8]


# --- one set-up per run -----------------------------------------------------

@pytest.mark.parametrize("argv, lattices", [
    (["sample", *LATTICE, "--shots", "500"], 1),
    (["synth", *LATTICE], 1),
    (["table1", "--sizes", "2,3", "--shots", "500"], 2),
])
def test_sigma_is_enumerated_once_per_lattice(argv, lattices, monkeypatch, capsys):
    from multamp.ising import IsingLattice
    calls = []
    cached = IsingLattice.__dict__["sigma"]  # the cached_property: patch the function it caches
    sigma = cached.func
    monkeypatch.setattr(cached, "func", lambda self: calls.append(self) or sigma(self))
    code, _, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert len(calls) == lattices


@pytest.mark.parametrize("argv, targets", [
    (["sample", *LATTICE, "--shots", "500"], 1),
    (["synth", *LATTICE], 1),
    (["table1", "--sizes", "2,3", "--shots", "500"], 4),  # one per row
])
def test_boltzmann_target_is_built_once_per_synthesis(argv, targets, monkeypatch, capsys):
    # the memory check is sized on the target the synthesis then runs
    from multamp.ising import BoltzmannTarget
    calls = []
    build = BoltzmannTarget.from_lattice.__func__
    monkeypatch.setattr(BoltzmannTarget, "from_lattice",
                        classmethod(lambda cls, *args: calls.append(args) or build(cls, *args)))
    code, _, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert len(calls) == targets


# --- table1 -----------------------------------------------------------------

def test_table1_smallest_rows_pass(tmp_path, capsys):
    code, out, _ = run(["table1", "--sizes", "2", "--shots", "20000",
                        "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert out.count("[ok]") == 2
    header, *rows = (tmp_path / "table1.csv").read_text().splitlines()
    assert header.startswith("lattice,variant,qubits,d,nu,u_sq,postamp")
    assert len(rows) == 2
    assert rows[0].startswith("2x2,direct,8,3,2,")
    assert rows[1].startswith("2x2,controlled,11,3,1,")


def test_table1_skips_gated_sizes_without_allow_large(monkeypatch, capsys):
    # shrink the budget so both 3x3 rows (12 and 15 simulated qubits) gate out
    from multamp import cli
    monkeypatch.setattr(cli, "DEFAULT_QUBIT_BUDGET", 11)
    code, out, _ = run(["table1", "--sizes", "3", "--shots", "100"], capsys)
    assert code == EXIT_OK
    assert out.count("skipped") == 2
    assert "--allow-large" in out


def test_table1_gates_on_the_computed_layout(monkeypatch, capsys):
    # the expected-row qubit counts are poisoned to 0, so only the layouts
    # the simulated states need for the rows (21 and 26 qubits) can skip them
    from multamp import cli, ising
    poisoned = {key: dict(row, qubits=0) for key, row in cli.TABLE1_EXPECTED.items()}
    monkeypatch.setattr(cli, "TABLE1_EXPECTED", poisoned)
    monkeypatch.setattr(cli, "DEFAULT_QUBIT_BUDGET", 20)  # gates the direct row too

    def refuse(*args, **kwargs):
        raise AssertionError("a gated row was synthesized")

    monkeypatch.setattr(ising, "synthesize_boltzmann", refuse)
    code, out, _ = run(["table1", "--sizes", "4"], capsys)
    assert code == EXIT_OK
    assert "4x4 direct: skipped (21 qubits" in out
    assert "4x4 controlled: skipped (26 qubits" in out


def test_table1_rejects_unknown_sizes(capsys):
    code, _, _ = run(["table1", "--sizes", "5"], capsys)
    assert code == EXIT_CONFIG
    code, _, err = run(["table1", "--sizes", ","], capsys)  # no row would be checked
    assert code == EXIT_CONFIG
    assert "--sizes" in err
    for sizes in ("2x3", "4x4"):  # comma-separated sizes only
        code, _, err = run(["table1", "--sizes", sizes], capsys)
        assert code == EXIT_CONFIG
        assert "bad --sizes value" in err


def test_table1_mismatch_exit_code(monkeypatch, capsys):
    # poison one expected value to prove the comparison actually bites
    from multamp import cli
    poisoned = dict(cli.TABLE1_EXPECTED)
    poisoned[("direct", 2)] = dict(poisoned[("direct", 2)], nu=5)
    monkeypatch.setattr(cli, "TABLE1_EXPECTED", poisoned)
    code, out, _ = run(["table1", "--sizes", "2", "--shots", "5000"], capsys)
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out


# --- baselines ----------------------------------------------------------------

def test_baselines_from_csv_table(tmp_path, capsys):
    table = tmp_path / "alphas.csv"
    table.write_text("0,0.9\n1,0.5\n2,0.25\n3,0.1\n")
    code, out, _ = run(["baselines", "--table", str(table), "--d", "4",
                        "--out", str(tmp_path), "--format", "json"], capsys)
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "baselines.json").read_text())
    assert [row["method"] for row in rows] == [
        "rotation", "comparator", "multiplicative-direct", "multiplicative-controlled"]
    code, _, _ = run(["baselines", "--d", "4"], capsys)
    assert code == EXIT_CONFIG
    code, _, _ = run(["baselines", "--table", str(tmp_path / "nope.csv"),
                      "--d", "4"], capsys)
    assert code == EXIT_CONFIG
    for name, text in [("nan.csv", "0,0.9\n1,nan\n2,0.25\n3,0.1\n"),
                       ("nan.json", "[0.9, NaN, 0.25, 0.1]")]:
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run(["baselines", "--table", str(bad), "--d", "4"], capsys)
        assert code == EXIT_CONFIG
        assert "[0, 1]" in err and "norm=" not in out
    for gamma in ("nan", "inf", "1.0"):
        code, out, err = run(["baselines", "--table", str(table), "--d", "4", "--gamma", gamma], capsys)
        assert code == EXIT_CONFIG
        assert "gamma" in err and "norm=" not in out


@pytest.mark.parametrize("args,names", [
    (["--d", "64", "--gamma", "2"], "d must be in 1..63"),
    (["--d", "0"], "d must be in 1..63"),
    (["--d", "4", "--eps", "0"], "cutoff_eps must be in (0, 1)"),
    (["--d", "4", "--eps", "-1"], "cutoff_eps must be in (0, 1)"),
    (["--d", "4", "--eps", "1.5"], "cutoff_eps must be in (0, 1)"),
    (["--d", "59"], "rounds to 1 at d=59; use a smaller d or --gamma"),
], ids=["d64", "d0", "eps0", "eps-1", "eps1.5", "d59"])
def test_baselines_names_a_bad_argument(args, names, tmp_path, capsys):
    table = tmp_path / "alphas.csv"
    table.write_text("0,0.9\n1,0.5\n2,0.25\n3,0.1\n")
    code, out, err = run(["baselines", "--table", str(table), *args], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and names in err and "Traceback" not in err
    assert "norm=" not in out
