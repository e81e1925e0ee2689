"""End-to-end tests of the command-line interface and its file outputs."""

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stepsafe.cli import (
    EXIT_INVALID_INPUT,
    EXIT_IO_FAILURE,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    FIELDS,
    ExperimentSpec,
    cmd_bounds,
    cmd_scale_sweep,
    main,
)
from stepsafe.descent import DescentConfig, load_trace, run_descent
from stepsafe.errors import InvalidInputError
from stepsafe.relu import (
    NetConfig,
    alpha_oracle,
    bound_alpha1,
    bound_alpha2,
    bound_alpha3,
    bound_alpha4,
    generate_dataset,
    initial_weights,
    loss_objective,
)
from stepsafe.tableio import read_table, write_table

ROOT = Path(__file__).resolve().parents[1]


def _rows_of_kind(rows, kind):
    return [r for r in rows if r[0] == kind]


def _library_descent(d, k, n, seed, eta, steps):
    """The descent a train or scale-sweep run makes, called on the library."""
    data = generate_dataset(NetConfig(d, k, n, seed))
    x0 = initial_weights(NetConfig(d, k, n, seed)).flat
    return run_descent(loss_objective(data), DescentConfig(eta=eta, steps=steps, x0=x0))


def _assert_descent_row(row, trace_path, trace):
    assert row[3:] == [trace.eta, trace.losses[-1], float(trace.monotone), float(trace.diverged)]
    assert np.array_equal(load_trace(trace_path)["loss"], trace.losses)


def _train_line(bound, value, seed, trace):
    """The line train prints when the run of a bound at a seed is done."""
    return (f"train: {bound}={value:.6g} eta={trace.eta:.3e} seed={seed} "
            f"final_loss={trace.losses[-1]:.3e} monotone={trace.monotone}")


def _train_descents(monkeypatch, *args):
    """Run `train` with args and return the number of run_descent calls it makes."""
    import stepsafe.cli as cli_mod

    calls = 0

    def counted(objective, config):
        nonlocal calls
        calls += 1
        return run_descent(objective, config)

    monkeypatch.setattr(cli_mod, "run_descent", counted)
    assert main(["train", *args, "--no-timestamp"]) == EXIT_OK
    return calls


class TestBoundsCommand:
    def test_writes_table_with_summary(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main([
            "bounds", "--d", "3", "--k", "2", "--n", "40", "--seed", "5",
            "--reps", "3", "--out", str(out), "--no-timestamp",
        ])
        assert code == EXIT_OK
        header, rows = read_table(out / "bounds.csv")
        assert header == ["kind", "seed", "alpha1", "alpha2", "alpha3", "alpha4"]
        runs = _rows_of_kind(rows, "run")
        assert len(runs) == 3
        assert [r[1] for r in runs] == [5.0, 6.0, 7.0]
        # values round-trip exactly against a direct computation
        data = generate_dataset(NetConfig(3, 2, 40, 6))
        assert runs[1][2] == bound_alpha1(data, 2)
        assert runs[1][3] == bound_alpha2(data, 2)
        mean = _rows_of_kind(rows, "mean")[0]
        assert mean[2] == pytest.approx(np.mean([r[2] for r in runs]))
        # the printed means are those of the library values
        datasets = [generate_dataset(NetConfig(3, 2, 40, seed)) for seed in (5, 6, 7)]
        means = [np.mean([f(data, 2) for data in datasets])
                 for f in (bound_alpha1, bound_alpha2, bound_alpha3, bound_alpha4)]
        summary = ", ".join(f"alpha{i}={v:.6g}" for i, v in enumerate(means, start=1))
        assert capsys.readouterr().out.splitlines() == [
            f"bounds: d=3 k=2 n=40 reps=3 mean {summary}", f"wrote {out / 'bounds.csv'}"]

    def test_idempotent_without_timestamp(self, tmp_path):
        out = tmp_path / "res"
        args = ["bounds", "--d", "3", "--k", "2", "--n", "30", "--reps", "2",
                "--out", str(out), "--no-timestamp"]
        assert main(args) == EXIT_OK
        first = (out / "bounds.csv").read_bytes()
        assert main(args) == EXIT_OK
        assert (out / "bounds.csv").read_bytes() == first

    def test_timestamp_headers_differ_only_in_comment(self, tmp_path):
        out = tmp_path / "res"
        args = ["bounds", "--d", "3", "--k", "2", "--n", "30", "--out", str(out)]
        assert main(args) == EXIT_OK
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0].startswith("# generated:")

    def test_bound_subset(self, tmp_path):
        out = tmp_path / "res"
        code = main(["bounds", "--d", "2", "--k", "2", "--n", "20",
                     "--bounds", "alpha2,alpha4", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        header, _ = read_table(out / "bounds.csv")
        assert header == ["kind", "seed", "alpha2", "alpha4"]

    @pytest.mark.parametrize("command", ["bounds", "oracle"])
    def test_kd_one_alpha4_is_alpha3_and_alpha2(self, tmp_path, command):
        # k*d = 1: the all-active matrix is 1 x 1, so alpha4 is its entry
        out = tmp_path / "res"
        code = main([command, "--d", "1", "--k", "1", "--n", "5", "--reps", "2", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        header, rows = read_table(out / f"{command}.csv")
        for r in _rows_of_kind(rows, "run"):
            col = dict(zip(header, r))
            assert col["alpha4"] == col["alpha3"] == col["alpha2"]


class TestTrainCommand:
    def test_traces_and_summary(self, tmp_path):
        out = tmp_path / "res"
        code = main(["train", "--d", "3", "--k", "2", "--n", "50", "--steps", "20",
                     "--bounds", "alpha2,alpha3", "--reps", "2",
                     "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        for seed in (0, 1):
            for bound in ("alpha2", "alpha3"):
                assert (out / f"train_{bound}_seed{seed}.csv").exists()
        header, rows = read_table(out / "train_summary.csv")
        assert header == ["bound", "seed", "bound_value", "eta", "final_loss", "monotone", "diverged"]
        assert len(rows) == 4
        assert all(r[5] == 1.0 for r in rows)  # safe steps descend monotonically

    def test_summary_row_matches_library(self, tmp_path, capsys):
        # each row, the loss column of its trace and its printed line are run_descent
        # at eta = 1/bound from the run's student init, bit for bit
        out = tmp_path / "res"
        code = main(["train", "--d", "2", "--k", "2", "--n", "8", "--steps", "15", "--seed", "3", "--reps", "2",
                     "--bounds", "oracle,alpha1,alpha2", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        library = {"oracle": lambda data: alpha_oracle(data, 2, "random-search"),
                   "alpha1": lambda data: bound_alpha1(data, 2), "alpha2": lambda data: bound_alpha2(data, 2)}
        _, rows = read_table(out / "train_summary.csv")
        assert [(r[0], r[1]) for r in rows] == [(b, s) for s in (3.0, 4.0) for b in library]
        lines = []
        for row in rows:
            bound, seed = row[0], int(row[1])
            value = library[bound](generate_dataset(NetConfig(2, 2, 8, seed)))
            trace = _library_descent(2, 2, 8, seed, 1.0 / value, 15)
            assert row[2] == value
            _assert_descent_row(row, out / f"train_{bound}_seed{seed}.csv", trace)
            lines.append(_train_line(bound, value, seed, trace))
        assert capsys.readouterr().out.splitlines() == [*lines, f"wrote {out / 'train_summary.csv'}"]

    @pytest.mark.parametrize("k, calls", [(5, 6), (1, 8)])
    def test_one_descent_per_distinct_step(self, tmp_path, monkeypatch, k, calls):
        # for k >= 2 the standard alpha4 equals alpha3, so the default four bounds make three
        # steps; at k = 1 (seeds 0-2) all four differ; a shared step still writes both traces
        out = tmp_path / "res"
        descents = _train_descents(monkeypatch, "--d", "10", "--k", str(k), "--n", "200", "--steps", "10",
                                   "--reps", "2", "--out", str(out))
        _, rows = read_table(out / "train_summary.csv")
        assert len(rows) == 8 and descents == calls == len({(r[1], r[3]) for r in rows})
        for seed in (0, 1):
            alpha3, alpha4 = (out / f"train_{b}_seed{seed}.csv" for b in ("alpha3", "alpha4"))
            assert (alpha3.read_bytes() == alpha4.read_bytes()) == (k > 1)

    def test_pattern_enum_oracle_shares_the_alpha2_descent(self, tmp_path, monkeypatch):
        # pattern-enum returns bound_alpha2
        out = tmp_path / "res"
        descents = _train_descents(monkeypatch, "--d", "10", "--k", "5", "--n", "200", "--steps", "10",
                                   "--reps", "2", "--bounds", "oracle,alpha2", "--oracle-strategy", "pattern-enum",
                                   "--out", str(out))
        assert descents == 2
        for seed in (0, 1):
            oracle, alpha2 = (out / f"train_{b}_seed{seed}.csv" for b in ("oracle", "alpha2"))
            assert oracle.read_bytes() == alpha2.read_bytes()


class TestScaleSweepCommand:
    def test_summary_fractions(self, tmp_path):
        out = tmp_path / "res"
        code = main(["scale-sweep", "--d", "3", "--k", "2", "--n", "50", "--steps", "20",
                     "--scales", "0.5,1", "--reps", "2", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        header, rows = read_table(out / "sweep_summary.csv")
        assert header == ["scale", "nonmonotone_fraction"]
        assert {r[0] for r in rows} == {0.5, 1.0}
        assert all(r[1] == 0.0 for r in rows)  # scales <= 1 always descend
        _, runs = read_table(out / "sweep_runs.csv")
        assert len(runs) == 4

    def test_runs_match_library(self, tmp_path, capsys):
        # each run row, its trace's loss column and the nonmonotone fractions, in the
        # table and as printed, come from run_descent at eta = scale/alpha2, bit for
        # bit; scale 40 overshoots, so a fraction other than 0 is checked too
        out = tmp_path / "res"
        code = main(["scale-sweep", "--d", "3", "--k", "2", "--n", "50", "--steps", "20",
                     "--scales", "1,4,40", "--reps", "2", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        _, runs = read_table(out / "sweep_runs.csv")
        assert [(r[0], r[1]) for r in runs] == [(s, seed) for seed in (0.0, 1.0) for s in (1.0, 4.0, 40.0)]
        nonmonotone = {1.0: [], 4.0: [], 40.0: []}
        for row in runs:
            scale, seed = row[0], int(row[1])
            alpha2 = bound_alpha2(generate_dataset(NetConfig(3, 2, 50, seed)), 2)
            trace = _library_descent(3, 2, 50, seed, scale / alpha2, 20)
            assert row[2] == alpha2
            _assert_descent_row(row, out / f"sweep_s{scale:g}_seed{seed}.csv", trace)
            nonmonotone[scale].append(not trace.monotone)
        _, summary = read_table(out / "sweep_summary.csv")
        assert summary == [[s, float(np.mean(flags))] for s, flags in nonmonotone.items()]
        assert summary[-1][1] > 0.0
        lines = [f"scale-sweep: scale={s:g} nonmonotone_fraction={np.mean(f):.2f}" for s, f in nonmonotone.items()]
        assert capsys.readouterr().out.splitlines() == [*lines, f"wrote {out / 'sweep_summary.csv'}"]

    def test_diverged_run_counts_as_nonmonotone(self, tmp_path, capsys):
        # at scale 1e200 the first step overflows the loss and the run stops: it had been
        # written as monotone 1, diverged 1 and counted as monotone in the fraction
        out = tmp_path / "res"
        code = main(["scale-sweep", "--d", "10", "--k", "5", "--n", "1000", "--steps", "5",
                     "--scales", "1e200,1e10", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        _, runs = read_table(out / "sweep_runs.csv")
        assert [(r[0], r[5], r[6]) for r in runs] == [(1e200, 0.0, 1.0), (1e10, 0.0, 0.0)]
        _, summary = read_table(out / "sweep_summary.csv")
        assert summary == [[1e200, 1.0], [1e10, 1.0]]
        assert capsys.readouterr().out.splitlines()[:2] == [
            "scale-sweep: scale=1e+200 nonmonotone_fraction=1.00", "scale-sweep: scale=1e+10 nonmonotone_fraction=1.00"]

    def test_diverged_trace_ends_on_the_non_finite_iterate(self, tmp_path):
        # the trace had stopped before the step that overflowed the loss, so its last flag read 1 beside
        # monotone 0 in sweep_runs.csv; it now ends on that iterate, with flag 0, and final_loss is its loss.
        # On every run of the listing's diverging sweep, the monotone cell is the trace file's last flag and
        # the diverged cell says whether the file's last row holds a non-finite loss or grad_norm
        out = tmp_path / "res"
        assert main(["scale-sweep", "--scales", "1,1e200", "--d", "10", "--k", "5", "--n", "1000", "--seed", "0",
                     "--reps", "2", "--steps", "5", "--out", str(out), "--no-timestamp"]) == EXIT_OK
        _, runs = read_table(out / "sweep_runs.csv")
        assert [(r[0], r[5], r[6]) for r in runs] == [(1.0, 1.0, 0.0), (1e200, 0.0, 1.0)] * 2
        for row in runs:
            trace = load_trace(out / f"sweep_s{row[0]:g}_seed{row[1]:g}.csv")
            assert float(trace["monotone_so_far"][-1]) == row[5]
            assert float(not (np.isfinite(trace["loss"][-1]) and np.isfinite(trace["grad_norm"][-1]))) == row[6]
            if row[0] == 1e200:
                assert trace["monotone_so_far"].tolist() == [True, False]
                assert trace["loss"][-1] == row[4] == np.inf and np.isnan(trace["descent_gap"][-1])

    def test_diverged_run_leaves_stderr_empty(self, tmp_path):
        # the same sweep as a command: the 1e200 run overflows the loss, and numpy's overflow warning had
        # reached stderr beside the command's output, though the run is reported as diverged
        result = subprocess.run([sys.executable, "-m", "stepsafe.cli", "scale-sweep", "--d", "10", "--k", "5",
                                 "--n", "1000", "--steps", "5", "--scales", "1e200,1e10", "--out", str(tmp_path),
                                 "--no-timestamp"], env=_checkout_env(), capture_output=True, text=True, timeout=300)
        assert result.returncode == EXIT_OK and result.stderr == ""

    def test_float32_library_scale_writes_the_float_scale_bytes(self, tmp_path):
        # a float32 scale had given a float32 step, written as a short eta cell
        # (0.18636404 for 0.18636404772703422), and a float32 descent
        written = []
        for name, scales in (("f32", (np.float32(0.5), 1.0)), ("f64", (0.5, 1.0))):
            spec = ExperimentSpec(d=3, k=2, n=20, steps=5, scales=scales, out=tmp_path / name, no_timestamp=True)
            cmd_scale_sweep(spec)
            written.append((tmp_path / name / "sweep_runs.csv").read_bytes())
        assert written[0] == written[1]


class TestOracleCommand:
    def test_pattern_enum_small_instance(self, tmp_path):
        out = tmp_path / "res"
        code = main(["oracle", "--d", "2", "--k", "2", "--n", "8", "--reps", "3",
                     "--oracle-strategy", "pattern-enum", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        header, rows = read_table(out / "oracle.csv")
        assert header[:3] == ["kind", "seed", "oracle"]
        runs = _rows_of_kind(rows, "run")
        for r in runs:
            oracle, alpha2, ratio = r[2], r[4], r[7]
            assert oracle == alpha2  # pattern-enum returns bound_alpha2
            assert ratio == oracle / alpha2

    def test_single_point_ratio_is_one(self, tmp_path):
        out = tmp_path / "res"
        code = main(["oracle", "--d", "2", "--k", "3", "--n", "1", "--reps", "5",
                     "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        _, rows = read_table(out / "oracle.csv")
        for r in _rows_of_kind(rows, "run"):
            assert r[7] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("strategy, d, k, n", [("pattern-enum", 2, 2, 8), ("random-search", 3, 2, 40)])
    def test_row_matches_library(self, tmp_path, capsys, strategy, d, k, n):
        # a run row is alpha_oracle on its default stream, alpha1..alpha4 and
        # oracle/alpha2, bit for bit, and the printed mean ratio is theirs
        out = tmp_path / "res"
        code = main(["oracle", "--d", str(d), "--k", str(k), "--n", str(n), "--seed", "4", "--reps", "2",
                     "--oracle-strategy", strategy, "--oracle-budget", "500", "--out", str(out), "--no-timestamp"])
        assert code == EXIT_OK
        _, rows = read_table(out / "oracle.csv")
        runs = _rows_of_kind(rows, "run")
        assert [r[1] for r in runs] == [4.0, 5.0]
        ratios = []
        for r in runs:
            data = generate_dataset(NetConfig(d, k, n, int(r[1])))
            oracle = alpha_oracle(data, k, strategy, budget=500)
            bounds = [f(data, k) for f in (bound_alpha1, bound_alpha2, bound_alpha3, bound_alpha4)]
            assert r[2:] == [oracle, *bounds, oracle / bounds[1]]
            ratios.append(oracle / bounds[1])
        assert capsys.readouterr().out.splitlines() == [
            f"oracle ({strategy}): mean oracle/alpha2 = {np.mean(ratios):.4f}", f"wrote {out / 'oracle.csv'}"]


class TestSpecFile:
    def test_file_values_and_flag_override(self, tmp_path):
        spec = tmp_path / "run.spec"
        spec.write_text(
            "d = 4\nk = 2\nn = 25\nseed = 3\nreps = 2\n"
            "bounds = alpha1,alpha2\nno-timestamp = true\n# comment line\n"
        )
        out = tmp_path / "res"
        code = main(["bounds", "--spec", str(spec), "--n", "30", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_table(out / "bounds.csv")
        assert header == ["kind", "seed", "alpha1", "alpha2"]
        data = generate_dataset(NetConfig(4, 2, 30, 3))  # n overridden by flag
        assert _rows_of_kind(rows, "run")[0][2] == bound_alpha1(data, 2)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a BOM had glued itself to the first key: "unknown key '\\ufeffd'"
        text = "d = 3\nk = 2\nn = 10\nno-timestamp = true\n"
        (tmp_path / "bom.spec").write_bytes(b"\xef\xbb\xbf" + text.encode())
        (tmp_path / "plain.spec").write_text(text)
        for name in ("bom", "plain"):
            assert main(["bounds", "--spec", str(tmp_path / f"{name}.spec"), "--out", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "bom" / "bounds.csv").read_bytes() == (tmp_path / "plain" / "bounds.csv").read_bytes()

    def test_one_list_of_spec_fields(self, capsys):
        # FIELDS, the ExperimentSpec fields, its docstring (the --help epilog) and each
        # subcommand's flags name the same settings, so a field added or removed in one
        # place only fails here
        assert set(FIELDS) == {f.name for f in dataclasses.fields(ExperimentSpec)}
        epilog = inspect.cleandoc(ExperimentSpec.__doc__)
        documented = {name for line in epilog.splitlines() if (row := re.match(r"  (\w+(?:, \w+)*)  ", line))
                      for name in row[1].split(", ")}
        assert documented == set(FIELDS)
        for command in ("bounds", "train", "scale-sweep", "oracle"):
            assert main([command, "--help"]) == EXIT_OK
            options = capsys.readouterr().out.split(epilog.splitlines()[0])[0]  # the text before the epilog
            assert [f for f in FIELDS if not re.search(rf"^  --{f.replace('_', '-')}\b", options, re.M)] == []

    @pytest.mark.parametrize("text", ["false", "no", "OFF", "0"])
    def test_false_no_timestamp_writes_the_stamp(self, tmp_path, text):
        spec = tmp_path / "run.spec"
        spec.write_text(f"d = 3\nk = 2\nn = 10\nno-timestamp = {text}\n")
        assert main(["bounds", "--spec", str(spec), "--out", str(tmp_path / "res")]) == EXIT_OK
        assert (tmp_path / "res" / "bounds.csv").read_text().startswith("# generated: ")

    def test_unknown_key_rejected(self, tmp_path):
        spec = tmp_path / "run.spec"
        spec.write_text("depth = 4\n")
        assert main(["bounds", "--spec", str(spec)]) == EXIT_INVALID_INPUT

    @pytest.mark.parametrize(
        "content, flags, named",
        [pytest.param(b"d = abc\n", [], "bad d value 'abc'", id="d = abc"),
         pytest.param(b"oracle-budget = 1e4\n", [], "bad oracle-budget value '1e4'", id="oracle-budget = 1e4"),
         pytest.param(b"", ["--d", "abc"], "bad d value 'abc'", id="flag --d abc"),
         pytest.param(b"d = 4 \xff\n", [], "run.spec is not UTF-8 text", id="not-utf8"),
         pytest.param(b"d = 3\n# d = 5\nd = 4\n", [], "run.spec:3: key 'd' repeats line 1", id="repeated key"),
         pytest.param(b"d 4\n", [], "run.spec:1: expected key = value", id="no equals sign"),
         pytest.param(b"no-timestamp = maybe\n", [], "bad no-timestamp value 'maybe'", id="no-timestamp = maybe")],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, content, flags, named):
        # the message names the key (or the file) and no output directory is made
        spec = tmp_path / "run.spec"
        spec.write_bytes(content)
        code = main(["bounds", "--spec", str(spec), *flags, "--out", str(tmp_path / "res")])
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("stepsafe: invalid input: ") and named in err
        assert not (tmp_path / "res").exists()


class TestExitCodes:
    def test_invalid_dimension(self, tmp_path):
        assert main(["bounds", "--d", "0", "--out", str(tmp_path)]) == EXIT_INVALID_INPUT

    def test_invalid_bound_name(self, tmp_path):
        assert main(["bounds", "--bounds", "alpha9", "--out", str(tmp_path)]) == EXIT_INVALID_INPUT

    @pytest.mark.parametrize("scales", ["nan", "inf", "1,1.0000001"], ids=["nan", "inf", "label-collision"])
    def test_bad_scales_rejected(self, tmp_path, capsys, scales):
        # rejected before any file is written; 1 and 1.0000001 would both
        # write sweep_s1_seed0.csv
        out = tmp_path / "res"
        assert main(["scale-sweep", "--d", "2", "--k", "1", "--n", "5", "--steps", "2",
                     "--scales", f"0.5,{scales}", "--out", str(out)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("stepsafe: invalid input: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--bounds", "alpha2,alpha2"]],
                             ids=["negative-seed", "repeated-bound"])
    def test_bad_selection_rejected(self, tmp_path, capsys, flags):
        # numpy refuses a negative seed; a repeated bound would write one
        # trace file twice
        out = tmp_path / "res"
        assert main(["train", "--d", "2", "--k", "1", "--n", "5", "--steps", "2", *flags,
                     "--out", str(out)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith("stepsafe: invalid input: ")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["reps", "steps", "oracle_budget"])
    def test_library_counts_must_be_integers(self, field):
        # reps=2.0 from a library caller had passed validate and died in range() in cmd_bounds;
        # building the spec now checks it
        with pytest.raises(InvalidInputError, match=rf"^{field} must be an integer, got 2\.0"):
            ExperimentSpec(**{field: 2.0})
        ExperimentSpec(**{field: np.int64(2)})

    def test_library_spec_with_str_out_writes_the_run(self, tmp_path):
        # a str out had died in cmd_bounds at spec.out.mkdir; building the spec makes it a Path
        spec = ExperimentSpec(d=2, k=1, n=5, out=str(tmp_path / "res"))
        assert spec.out == tmp_path / "res"
        cmd_bounds(spec)
        assert (tmp_path / "res" / "bounds.csv").is_file()

    def test_library_list_spec_equals_and_hashes_like_its_tuples(self):
        # a list had made the frozen spec unhashable
        listed = ExperimentSpec(scales=[1.0, 2.0], bounds=["alpha1", "alpha2"])
        tupled = ExperimentSpec(scales=(1.0, 2.0), bounds=("alpha1", "alpha2"))
        assert listed == tupled and hash(listed) == hash(tupled)

    @pytest.mark.parametrize("field, value", [("out", 5), ("out", None), ("scales", 2.0), ("bounds", None)])
    def test_library_value_neither_path_nor_sequence_named(self, field, value):
        with pytest.raises(InvalidInputError, match=rf"^bad {field} value {value!r}$"):
            ExperimentSpec(**{field: value})

    @pytest.mark.parametrize("scales", ["12", ("a",), (None,), (True, 2.0), (1.0, 10**400), (Fraction(10**400, 3),)],
                             ids=["str", "str-scale", "None-scale", "bool-scale", "int-overflow", "fraction-overflow"])
    def test_library_scale_not_a_number_named(self, scales):
        # each had died comparing a str or None with 0.0, built with True as a scale of 1, or escaped
        # main's handlers as OverflowError from the float conversion; tuple("12") is ('1', '2')
        with pytest.raises(InvalidInputError, match=rf"^bad scales value {re.escape(repr(tuple(scales)))}$"):
            ExperimentSpec(scales=scales)
        assert ExperimentSpec(scales=[0.5, np.float64(1.0)]).scales == (0.5, 1.0)

    def test_library_no_timestamp_must_be_a_bool(self):
        # "no" had been truthy to stamp() and silently dropped the timestamp line
        with pytest.raises(InvalidInputError, match="no_timestamp must be a bool, got 'no'"):
            ExperimentSpec(no_timestamp="no")

    def test_built_spec_is_frozen(self):
        spec = ExperimentSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.reps = 2.0

    @pytest.mark.parametrize("d, n", [(3, 12), (4, 12), (3, 13)])
    def test_oracle_strategy_defaults_to_random_search_and_rejects_auto(self, tmp_path, capsys, d, n):
        # the default is one strategy at every size; "auto", which once picked pattern-enum
        # up to n = 12 and d = 3, is refused from a library spec, a flag and a spec-file key
        assert ExperimentSpec(d=d, n=n).oracle_strategy == "random-search"
        message = "oracle strategy must be one of ('pattern-enum', 'random-search')"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            ExperimentSpec(d=d, n=n, oracle_strategy="auto")
        spec, out = tmp_path / "spec.txt", tmp_path / "res"
        spec.write_text("oracle-strategy = auto\n")
        for flags in (["--oracle-strategy", "auto"], ["--spec", str(spec)]):
            code = main(["oracle", "--d", str(d), "--k", "2", "--n", str(n), *flags, "--out", str(out)])
            assert code == EXIT_INVALID_INPUT
            assert capsys.readouterr().err == f"stepsafe: invalid input: {message}\n"
        assert not out.exists()

    def test_parser_error_maps_to_invalid_input(self):
        assert main(["bounds", "--bogus"]) == EXIT_INVALID_INPUT

    def test_retired_alpha4_variant_refused(self, tmp_path, capsys):
        # alpha4 has one formula: its old variant flag, spec-file key, spec field and
        # bound_alpha4 argument are refused, and nothing is written
        out, spec = tmp_path / "res", tmp_path / "run.spec"
        assert main(["bounds", "--alpha4-variant", "standard", "--out", str(out)]) == EXIT_INVALID_INPUT
        assert "unrecognized arguments: --alpha4-variant standard" in capsys.readouterr().err
        spec.write_text("alpha4-variant = standard\n")
        assert main(["bounds", "--spec", str(spec), "--out", str(out)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err == f"stepsafe: invalid input: {spec}:1: unknown key 'alpha4-variant'\n"
        assert not out.exists()
        with pytest.raises(TypeError):
            ExperimentSpec(alpha4_variant="standard")
        with pytest.raises(TypeError):
            bound_alpha4(generate_dataset(NetConfig(2, 2, 5, 0)), 2, "standard")

    def test_unwritable_output(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["bounds", "--d", "2", "--k", "1", "--n", "5",
                     "--out", str(blocker / "sub")])
        assert code == EXIT_IO_FAILURE

    def test_numerical_failure_path(self, monkeypatch, tmp_path):
        # force a degenerate bound value so the derived step size is unusable
        import stepsafe.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_bound_value", lambda *a, **k: float("inf"))
        code = main(["train", "--d", "2", "--k", "1", "--n", "5", "--steps", "2",
                     "--bounds", "alpha2", "--out", str(tmp_path / "res")])
        assert code == EXIT_NUMERICAL_FAILURE

    def test_zero_bound_is_numerical_failure(self, tmp_path, capsys):
        # the single random-search draw activates nothing, so the oracle is 0
        out = tmp_path / "res"
        code = main(["train", "--d", "1", "--k", "1", "--n", "1", "--bounds", "oracle",
                     "--oracle-strategy", "random-search", "--oracle-budget", "1", "--seed", "0",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("stepsafe: numerical failure: bound oracle is 0.0 at seed 0")
        assert not (out / "train_oracle_seed0.csv").exists()

    @pytest.mark.parametrize("scales, d, k, n", [((1.0, 1e308), 1, 1, 1), ((5e-324,), 3, 2, 20)],
                             ids=["overflow", "underflow"])
    def test_step_that_overflows_or_underflows_is_numerical_failure(self, tmp_path, capsys, scales, d, k, n):
        # alpha2 is positive and finite, but scale/alpha2 comes out inf or 0.0: DescentConfig had refused that
        # step as invalid input (exit 1); the runs before it keep their traces
        out = tmp_path / "res"
        code = main(["scale-sweep", "--scales", ",".join(map(repr, scales)), "--d", str(d), "--k", str(k),
                     "--n", str(n), "--steps", "2", "--out", str(out)])
        assert code == EXIT_NUMERICAL_FAILURE
        value = bound_alpha2(generate_dataset(NetConfig(d, k, n, 0)), k)
        assert capsys.readouterr().err == (f"stepsafe: numerical failure: bound alpha2 is {value!r} at seed 0, "
                                           f"so scale {scales[-1]!r} gives step size {scales[-1] / value!r}\n")
        assert sorted(p.name for p in out.iterdir()) == [f"sweep_s{s:g}_seed0.csv" for s in scales[:-1]]

    def test_failure_keeps_finished_runs(self, tmp_path):
        # the alpha2 run finishes before the oracle of 0 stops the command: its line
        # comes before the failure message and its trace is written, the summary is not
        out = tmp_path / "res"
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = main(["train", "--d", "1", "--k", "1", "--n", "1", "--bounds", "alpha2,oracle",
                         "--oracle-strategy", "random-search", "--oracle-budget", "1", "--out", str(out)])
        assert code == EXIT_NUMERICAL_FAILURE
        alpha2 = bound_alpha2(generate_dataset(NetConfig(1, 1, 1, 0)), 1)
        trace = _library_descent(1, 1, 1, 0, 1.0 / alpha2, 100)
        lines = text.getvalue().splitlines()
        assert len(lines) == 2 and lines[0] == _train_line("alpha2", alpha2, 0, trace)
        assert lines[1].startswith("stepsafe: numerical failure: bound oracle is 0.0 at seed 0")
        assert np.array_equal(load_trace(out / "train_alpha2_seed0.csv")["loss"], trace.losses)
        assert not (out / "train_summary.csv").exists()


def _checkout_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=_checkout_env(), capture_output=True, text=True, timeout=300)


class TestBoundTableScript:
    def test_summary_rows_are_config_means(self, tmp_path):
        assert _run_script("run_bound_table.py", "--reps", "1", "--out", str(tmp_path)).returncode == EXIT_OK
        header, summary = read_table(tmp_path / "summary.csv")
        assert header == ["d", "k", "n", "alpha1", "alpha2", "alpha3", "alpha4"]
        assert len(summary) == 6
        for row in summary:
            _, rows = read_table(tmp_path / "d{:g}_k{:g}_n{:g}".format(*row[:3]) / "bounds.csv")
            assert row[3:] == _rows_of_kind(rows, "mean")[0][2:]

    def test_runs_bare_from_a_checkout(self, tmp_path):
        # no install and no PYTHONPATH: the script finds this checkout's src itself
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        result = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_bound_table.py"), "--reps", "1",
                                 "--out", str(tmp_path)], env=env, cwd=tmp_path, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == EXIT_OK, result.stderr
        assert len(read_table(tmp_path / "summary.csv")[1]) == 6

    def test_pythonpath_package_wins(self, tmp_path):
        # a stepsafe on PYTHONPATH is the one imported, not this checkout's
        (tmp_path / "stepsafe").mkdir()
        (tmp_path / "stepsafe" / "__init__.py").write_text("raise SystemExit(42)\n")
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        result = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_bound_table.py"), "--reps", "1",
                                 "--out", str(tmp_path / "res")], env=env, capture_output=True, timeout=300)
        assert result.returncode == 42

    @pytest.mark.parametrize("reps", ["0", "x"], ids=["zero", "text"])
    def test_bad_reps_rejected(self, tmp_path, reps):
        result = _run_script("run_bound_table.py", "--reps", reps, "--out", str(tmp_path / "res"))
        assert result.returncode == EXIT_INVALID_INPUT
        assert result.stderr.startswith("stepsafe: invalid input: ")
        assert not (tmp_path / "res").exists()


def _digests_with(tmp_path, replaced: str) -> list[str]:
    """The listing lines of output_digests.run(tmp_path), run in a new interpreter after the statements
    ``replaced`` have swapped attributes of the module ``o``."""
    stub = (f"import sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); import output_digests as o; "
            f"{replaced}; o.run(o.Path(sys.argv[1]))")
    result = subprocess.run([sys.executable, "-c", stub, str(tmp_path)], env=_checkout_env(), capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == EXIT_OK, result.stderr
    return result.stdout.splitlines()


class TestOutputDriftScripts:
    def test_keep_refuses_a_directory_in_use(self, tmp_path):
        (tmp_path / "old.csv").write_text("x\n1\n")
        result = _run_script("output_digests.py", "--keep", str(tmp_path))
        assert result.returncode != EXIT_OK and "is not empty" in result.stderr
        assert result.stdout == ""

    def test_keep_writes_library_values_outside_the_listing(self, tmp_path):
        # the script with its CLI runs, bound table and datasets left out: each library call's value and
        # witness go to library/<name>.csv, whose cells give back the bytes of its digest line
        # bound table stdout, 5 help texts, usage error, 29 library calls
        lines = _digests_with(tmp_path, "o._runs, o.CONFIGS, o.bound_table = (lambda: ()), (), (lambda argv: 0)")
        assert len(lines) == 36
        listed = {name: digest for digest, name in (line.split("  ") for line in lines[7:])}
        assert {p.stem for p in (tmp_path / "library").iterdir()} == set(listed)
        for name, digest in listed.items():
            header, rows = read_table(tmp_path / "library" / f"{name}.csv")
            values = np.array(rows, dtype=float)
            assert header == ["value", "witness"][: values.shape[1]] and len(set(values[:, 0])) == 1
            data = values[0, 0].tobytes() + values[:, 1:].tobytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bound_table", "help", "library"]

    def test_keep_writes_each_digested_text(self, tmp_path):
        # two small runs stand in for the CLI runs, and the bound table and library calls are left out: each
        # <stdout>, help and usage-error line is the digest of the text kept beside it, the output directory
        # masked, and the listing still names only CSV files besides those texts
        lines = _digests_with(tmp_path, "o._runs = lambda: [('tiny', ['bounds', '--d', '2', '--k', '1', '--n', '5']), "
                                        "('invalid_d0', ['bounds', '--d', '0'])]; "
                                        "o.CONFIGS, o.bound_table, o._library_calls = (), (lambda argv: 0), (lambda: ())")
        kept = {"tiny/<stdout>": "tiny/stdout.txt", "invalid_d0/<stdout>": "invalid_d0/stdout.txt",
                "bound_table/<stdout>": "bound_table/stdout.txt", "help": "help/stepsafe.txt",
                **{f"help {c}": f"help/{c}.txt" for c in ("bounds", "train", "scale-sweep", "oracle")},
                "usage error": "help/usage_error.txt"}
        listed = dict(reversed(line.split("  ", 1)) for line in lines)
        assert set(listed) == {*kept, "tiny/bounds.csv"}
        for name, path in kept.items():
            assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == listed[name]
        assert (tmp_path / "tiny" / "stdout.txt").read_text().endswith("wrote <out>/bounds.csv\nexit 0\n")
        assert (tmp_path / "invalid_d0" / "stdout.txt").read_text().endswith("exit 1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bound_table", "help", "invalid_d0", "tiny"]

    def test_compare_reports_drift_per_column_and_flags_mismatches(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["train", "--d", "2", "--k", "2", "--n", "8", "--steps", "3", "--reps", "1",
                "--bounds", "alpha1,alpha2", "--no-timestamp"]
        for out in (a, b):
            assert main([*argv, "--out", str(out / "run")]) == EXIT_OK
        result = _run_script("compare_outputs.py", str(a), str(b))
        assert result.returncode == EXIT_OK
        assert result.stdout.splitlines() == ["3 of 3 shared files byte-identical; largest drift over the rest: none"]

        trace = b / "run" / "train_alpha1_seed0.csv"
        header, rows = read_table(trace)
        rows[1][1] *= 1 + 1e-12  # row 1's loss is 0.58 of row 0's, the column's largest
        write_table(trace, header, rows)
        summary = b / "run" / "train_summary.csv"
        summary.write_text(summary.read_text().replace("final_loss", "loss_at_end"))
        (b / "run" / "train_alpha2_seed0.csv").unlink()
        result = _run_script("compare_outputs.py", str(a), str(b))
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert lines[0] == f"run/train_alpha2_seed0.csv: only in {a}"
        assert lines[1] == "run/train_alpha1_seed0.csv: step 0  loss 5.8e-13  grad_norm 0  descent_gap 0  monotone_so_far 0"
        assert lines[2].startswith("run/train_summary.csv: header [") and "'loss_at_end'" in lines[2]
        assert lines[3] == "0 of 2 shared files byte-identical; largest drift over the rest: step 0  loss 5.8e-13  " \
                           "grad_norm 0  descent_gap 0  monotone_so_far 0"

    def test_compare_reads_drift_against_the_column_largest_value(self, tmp_path):
        # a small cell that differences near-equal numbers, as a stddev row or a descent gap does, moves by one
        # ulp of those numbers: relative to the column's largest value (5) that is 1.8e-16; relative to the
        # cell's own 1e-2 it had read 8.9e-14
        for tree, top in (("a", 5.01), ("b", np.nextafter(5.01, np.inf))):
            (tmp_path / tree).mkdir()
            write_table(tmp_path / tree / "t.csv", ["kind", "value"], [["mean", 5.0], ["stddev", top - 5.0]])
        result = _run_script("compare_outputs.py", str(tmp_path / "a"), str(tmp_path / "b"))
        assert result.returncode == EXIT_OK
        line = result.stdout.splitlines()[0]
        assert line == "t.csv: kind 0  value 1.8e-16" and float(line.rsplit(" ", 1)[1]) <= 1e-15


class TestFreshRunProbeScript:
    def test_one_run_prints_json_summary(self):
        args = ["bounds", "--d", "2", "--k", "2", "--n", "8", "--no-timestamp"]
        result = _run_script("fresh_run_probe.py", "--runs", "1", "--", *args)
        assert result.returncode == EXIT_OK
        summary = json.loads(result.stdout.splitlines()[-1])
        assert summary["runs"] == 1 and summary["args"] == args

    def test_failed_cli_run_exits_nonzero(self):
        result = _run_script("fresh_run_probe.py", "--", "bounds", "--d", "0")
        assert result.returncode != EXIT_OK
        assert "cli.main returned 1" in result.stderr
