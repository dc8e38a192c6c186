"""Command-line behaviour: output formats, determinism, exit codes."""

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import FIXTURES

import qreflect as qr
from qreflect import cli, reflections, stokes
from qreflect.io import write_state

BELL = FIXTURES / "bell.json"
BELL_STOKES = FIXTURES / "bell_stokes.json"
UPB = FIXTURES / "upb_separable.json"
MIXED = FIXTURES / "maximally_mixed_2q.json"
NEAR_HERMITIAN = FIXTURES / "near_hermitian_3q.json"
# finite, Hermitian and of trace one, with eigenvalues +-2.4e308 beyond the float range
HUGE_SPECTRUM = {
    "n": 1,
    "format": "hermitian",
    "re": [[0.5, 1.7e308], [1.7e308, 0.5]],
    "im": [[0.0, 1.7e308], [-1.7e308, 0.0]],
}
# CI's analyze flags: every criterion that applies at n = 2 and at n = 3
CI_FLAGS = {
    2: "--ppt A --ppt B --ccn --concurrence --reflect A --reflect B --reflect AB --feasible"
    " --reduction A --reduction B",
    3: "--ppt A --ppt B --ppt C --ppt AB --ppt AC --ppt BC --reflect A --reflect B --reflect C"
    " --reflect AB --reflect AC --reflect BC --reflect ABC --feasible"
    " --reduction A --reduction B --reduction C --reduction AB --reduction AC --reduction BC",
}
ANALYZE_EVERY_FIXTURE = {
    f"analyze-{path.stem}": ["analyze", str(path), *CI_FLAGS[json.loads(path.read_text())["n"]].split()]
    for path in sorted(FIXTURES.glob("*.json"))
}
# Command lines the full parser takes, or refuses with its usage line, help or version.
ARGV_FORMS = {
    "empty": [],
    "help": ["-h"],
    "version": ["--version"],
    "unknown-command": ["bogus"],
    "analyze-no-state": ["analyze"],
    "analyze-help": ["analyze", "--help"],
    "analyze-unknown-option": ["analyze", str(BELL), "--bogus"],
    "analyze-unknown-short-option": ["analyze", "-p", "A", str(BELL)],
    "analyze-second-state": ["analyze", str(BELL), str(UPB)],
    "analyze-every-flag": ["analyze", str(BELL), *CI_FLAGS[2].split(), "--plain"],
    "analyze-abbreviated": ["analyze", str(BELL), "--pl", "--feas"],
    "analyze-ambiguous": ["analyze", str(BELL), "--p", "A"],
    "analyze-missing-subset": ["analyze", str(BELL), "--ppt"],
    "analyze-version-prefix": ["analyze", str(BELL), "--v"],
    "analyze-double-dash": ["analyze", "--", str(BELL)],
    "analyze-options-before-state": ["analyze", "--ppt", "A", "--feasible", str(BELL)],
    "analyze-empty-values": ["analyze", "", "--ppt", ""],
    "analyze-dash-led-subset": ["analyze", str(BELL), "--ppt", "-1"],
    "analyze-equals": ["analyze", str(BELL), "--ppt=A"],
    "table1": ["table1"],
    "table1-plain": ["table1", "--plain"],
    "table1-extra": ["table1", "extra"],
    "table1-version": ["table1", "--version"],
    "plain-before-command": ["--plain", "table1"],
    "upb-demo-plain": ["upb-demo", "--plain"],
    "upb-demo-help": ["upb-demo", "-h"],
    "prop-every-option": ["prop", "--seed", "7", "--trials", "5", "--inject-mask-corruption"],
    "prop-equals": ["prop", "--trials=2", "--seed=3", "--plain"],
    "prop-bad-trials": ["prop", "--trials", "x"],
    "prop-missing-trials": ["prop", "--trials"],
    "prop-repeated-seed": ["prop", "--seed", "1", "--seed", "2"],
    "prop-spaced-trials": ["prop", "--trials", " 5"],
}
# The forms of ARGV_FORMS made only of exact option names and values; argparse reads every other one.
READ_EXACTLY = {
    "analyze-every-flag",
    "analyze-options-before-state",
    "analyze-empty-values",
    "table1",
    "table1-plain",
    "upb-demo-plain",
    "prop-every-option",
    "prop-repeated-seed",
    "prop-spaced-trials",
}
# Tokens outside every command's option strings: empty, spaced and dash-led values, a bare "--",
# an abbreviation, an "=" form, help, version, and plain values.
EDGE_TOKENS = ["", " 5", "-1", "--", "--pp", "--ppt=A", "-h", "--version", "x", "7", "A", str(BELL)]


def run_cli(*args, env_extra=None, python_flags=()):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "qreflect", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestTable1:
    def test_counts_row(self):
        proc = run_cli("table1")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["sign_change_counts"] == [4, 4, 6, 12, 12, 6, 15]
        assert doc["result"]["rows"] == ["".join(p) for p in itertools.product("0123", repeat=2)]

    def test_plain_output_is_byte_identical_across_runs(self):
        first = run_cli("table1", "--plain")
        second = run_cli("table1", "--plain")
        assert first.stdout == second.stdout
        assert "changes" in first.stdout

    def test_json_result_payload_is_deterministic(self):
        docs = [json.loads(run_cli("table1").stdout) for _ in range(2)]
        assert docs[0]["result"] == docs[1]["result"]


class TestAnalyze:
    def test_bell_ppt(self):
        proc = run_cli("analyze", str(BELL), "--ppt", "A")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)["result"]["criteria"][0]
        assert report["verdict"] == "entangled"
        assert report["witness"] == pytest.approx(-0.5, abs=1e-10)

    def test_stokes_format_input(self):
        proc = run_cli("analyze", str(BELL_STOKES), "--concurrence")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)["result"]["criteria"][0]
        assert report["witness"] == pytest.approx(1.0, abs=1e-10)

    def test_upb_feasibility(self):
        proc = run_cli("analyze", str(UPB), "--feasible")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)["result"]["criteria"][0]
        assert report["extra"]["exact_psd"] is True
        assert report["verdict"] == "feasible"

    def test_maximally_mixed_all_flags(self):
        proc = run_cli(
            "analyze", str(MIXED), "--ppt", "A", "--ccn", "--concurrence",
            "--reflect", "AB", "--feasible", "--reduction", "B",
        )
        assert proc.returncode == 0
        verdicts = {c["criterion"]: c["verdict"] for c in json.loads(proc.stdout)["result"]["criteria"]}
        assert verdicts == {
            "ppt": "separable-consistent",
            "ccn": "separable-consistent",
            "concurrence": "separable-consistent",
            "reflection": "feasible",
            "total-reflection": "feasible",
            "reduction": "separable-consistent",
        }

    def test_entangled_verdict_is_not_an_error(self):
        proc = run_cli("analyze", str(BELL), "--ppt", "A", "--ccn", "--concurrence")
        assert proc.returncode == 0

    def test_digest_tracks_the_input_file(self):
        doc = json.loads(run_cli("analyze", str(BELL), "--ppt", "A").stdout)
        other = json.loads(run_cli("analyze", str(MIXED), "--ppt", "A").stdout)
        assert doc["input_digest"] != other["input_digest"]
        assert len(doc["input_digest"]) == 64

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not a state")
        proc = run_cli("analyze", str(bad), "--ppt", "A")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_missing_file_exits_2(self):
        proc = run_cli("analyze", "/nonexistent/state.json", "--ppt", "A")
        assert proc.returncode == 2

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_a_path_that_cannot_be_read_gets_the_load_message(self, tmp_path, kind):
        # the command once printed the bare OSError, unlike load_density
        path = tmp_path / "missing.json" if kind == "missing" else tmp_path
        proc = run_cli("analyze", str(path), "--ppt", "A")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read state file {path}: ")

    def test_dimension_mismatch_exits_3(self):
        proc = run_cli("analyze", str(UPB), "--concurrence")
        assert proc.returncode == 3
        proc = run_cli("analyze", str(BELL), "--ppt", "C")
        assert proc.returncode == 3

    def test_tolerance_override(self):
        proc = run_cli("analyze", str(BELL), "--ppt", "A", env_extra={"QREFLECT_TOL": "1.0"})
        report = json.loads(proc.stdout)["result"]["criteria"][0]
        assert report["verdict"] == "separable-consistent"
        assert report["tolerance"] == 1.0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_exits_2(self, tol):
        proc = run_cli("analyze", str(BELL), "--ppt", "A", env_extra={"QREFLECT_TOL": tol})
        assert proc.returncode == 2
        assert "QREFLECT_TOL" in proc.stderr

    def test_tolerance_does_not_loosen_the_load_check(self, tmp_path):
        path = tmp_path / "state.json"
        doc = {"n": 1, "format": "hermitian", "re": [[1 + 1e-8, 0.0], [0.0, -1e-8]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", str(path), "--ppt", "A", env_extra={"QREFLECT_TOL": "1e-6"})
        assert proc.returncode == 2
        assert "negative eigenvalue" in proc.stderr

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "format": "hermitian", "re": [[float("nan"), 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"n": 1, "format": "stokes", "values": [2**-0.5, 0.0, 0.0, float("inf")]},
            {"n": 1, "format": "stokes", "values": [10**400, 0, 0, 0]},
            {"n": 1, "format": "stokes", "values": [2**-0.5, 1.7e308, 1.7e308, 1.7e308]},
        ],
        ids=["hermitian-nan", "stokes-inf", "stokes-beyond-float", "stokes-cancelling"],
    )
    def test_non_finite_state_exits_2(self, tmp_path, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", str(path), "--feasible")
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "format": "stokes", "values": [2**-0.5, 0.0, 1.2711610061536464e308, 0.0]},
            {"n": 1, "format": "hermitian", "re": [[0.5, 1e308], [-1e308, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"n": 2, "format": "stokes", "values": [0.5, 0.0, 0.0, 1.7e308] + [0.0] * 11 + [1.7e308]},
            HUGE_SPECTRUM,
        ],
        ids=[
            "stokes-huge-off-diagonal",
            "hermitian-huge-defect",
            "stokes-transform-overflow",
            "hermitian-huge-spectrum",
        ],
    )
    def test_overflowing_input_exits_2_with_warnings_as_errors(self, tmp_path, doc):
        # a RuntimeWarning under -W error would be exit 1: the load check refuses each entry past the limit itself
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", str(path), "--feasible", python_flags=("-X", "dev", "-W", "error"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Warning" not in proc.stderr
        assert "entries must be at most 1e+150 in magnitude, got " in proc.stderr

    def test_labels_parse_before_any_criterion_checks_its_subset(self):
        # a malformed label is exit 2 even after an out-of-range subset, which alone is exit 3
        proc = run_cli("analyze", str(BELL), "--ppt", "D", "--reduction", "?")
        assert proc.returncode == 2
        assert "cannot parse qubit label" in proc.stderr

    @pytest.mark.parametrize("flag,text", [("--ppt", ""), ("--reflect", "A?"), ("--reduction", "\u00b2")])
    def test_unparseable_subset_exits_2(self, flag, text):
        proc = run_cli("analyze", str(BELL), flag, text)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error" in proc.stderr

    @pytest.mark.parametrize("raw", [b"\xff\xfe\x00garbage", b"[" * 100000], ids=["bad-utf8", "deep-nesting"])
    def test_undecodable_file_exits_2(self, tmp_path, raw):
        path = tmp_path / "state.json"
        path.write_bytes(raw)
        proc = run_cli("analyze", str(path), "--ppt", "A")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"n": 1, "format": "hermitian", "re": [[float("nan"), 0], [0, 0.5]], "im": [[0, 0], [0, 0]]},
                "entries must be finite",
            ),
            ({"n": 1, "format": "stokes", "values": [2**-0.5, 0.0, 1e151, 0.0]}, "entries must be at most 1e+150"),
            ({"n": 1, "format": "stokes", "values": [0.5, 0.0, 0.0, 0.0]}, "affine component"),
            ({"n": 1, "format": "hermitian", "re": [[0.5, 0.0], [0.0, 0.5]]}, "missing field 'im'"),
            ({"n": 7, "format": "stokes", "values": [1.0]}, "supported qubit counts are 1..6"),
            ([1, 2], "state document must be a JSON object"),
            ({"n": 1, "format": "hermitian", "re": [[1.5, 0], [0, -0.5]], "im": [[0, 0], [0, 0]]}, "negative"),
            ({"n": 1, "format": "stokes", "values": 5}, "'values' must be a flat array of 4 entries"),
            ({"n": 1, "format": "stokes", "values": [10**400, 0, 0, 0]}, "entries must be at most 1e+150 in magnitude"),
        ],
        ids=[
            "nan",
            "past-the-limit",
            "affine",
            "missing-field",
            "qubit-count",
            "not-an-object",
            "not-a-density",
            "values-5",
            "big-int",
        ],
    )
    def test_every_load_refusal_names_the_file(self, tmp_path, doc, message):
        # a refusal by the document rule used to print its message alone, with no path
        path = tmp_path / "named_state.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("analyze", str(path), "--feasible")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in proc.stderr
        assert str(path) in proc.stderr


class TestSolveOnce:
    @staticmethod
    def solves_and_result(argv, monkeypatch, capsys):
        """The shape of each matrix ``eigvalsh`` solved during one ``cli.main`` call, and its result."""
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(matrix, *args, **kwargs):
            solved.append(np.shape(matrix))
            return eigvalsh(matrix, *args, **kwargs)

        # undone on return, so a later call counts into its own list only
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "eigvalsh", counting)
            assert cli.main(argv) == 0
        return solved, json.loads(capsys.readouterr().out)["result"]

    def test_feasible_analyze_solves_the_state_once(self, monkeypatch, capsys):
        solved, result = self.solves_and_result(["analyze", str(UPB), "--feasible"], monkeypatch, capsys)
        assert solved == [(8, 8)]
        assert result["purity"] == pytest.approx(0.25, abs=1e-14)
        assert result["min_eig"] == pytest.approx(0.0, abs=1e-14)


    @staticmethod
    def counting_calls(monkeypatch, linalg_names, extra=()):
        """A dict counting the calls of each named ``np.linalg`` function, ``to_stokes``, ``from_stokes`` and each
        ``(owner, attribute, key)`` in ``extra``, filled as the calls happen."""
        calls = dict.fromkeys([*linalg_names, "to_stokes", "from_stokes", *(key for _, _, key in extra)], 0)

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        for name in linalg_names:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for name in ("to_stokes", "from_stokes"):
            # bound by name in several modules, so patch every binding of the original
            original = getattr(stokes, name)
            for module in [m for key, m in sys.modules.items() if key.startswith("qreflect.")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        for owner, attribute, key in extra:
            monkeypatch.setattr(owner, attribute, counting(key, getattr(owner, attribute)))
        return calls

    def test_kernel_verdicts_make_no_stokes_hops(self, monkeypatch, capsys):
        calls = self.counting_calls(monkeypatch, ["eigvalsh"], [(reflections.SignMask, "__init__", "SignMask")])
        argv = ["analyze", str(UPB), "--ppt", "A", "--ppt", "B", "--ppt", "C", "--reflect", "A", "--feasible"]
        assert cli.main(argv + ["--reduction", "A"]) == 0
        # the state and the three PPT cuts; --reflect A and --reduction A read the cut A | BC
        assert calls == {"eigvalsh": 4, "to_stokes": 0, "from_stokes": 0, "SignMask": 0}
        assert len(json.loads(capsys.readouterr().out)["result"]["criteria"]) == 6

    @pytest.mark.parametrize("fmt", ["hermitian", "stokes"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_applicable_criterion_solves_the_state_and_each_single_qubit_cut(
        self, n, fmt, tmp_path, monkeypatch, capsys
    ):
        # --ppt on each qubit, --ccn for even n, --concurrence for n=2, and --reflect A --feasible --reduction A
        rho = qr.random_density(n, "mixed_dirichlet", np.random.default_rng(n))
        path = tmp_path / "state.json"
        write_state(path, rho if fmt == "hermitian" else qr.to_stokes(rho))
        letters = [chr(ord("A") + q) for q in range(n)]
        argv = ["analyze", str(path)] + [arg for letter in letters for arg in ("--ppt", letter)]
        argv += ["--ccn"] * (n % 2 == 0) + ["--concurrence"] * (n == 2)
        argv += ["--reflect", "A", "--feasible", "--reduction", "A"]
        solved, result = self.solves_and_result(argv, monkeypatch, capsys)
        # the state and one partial transpose per unordered single-qubit cut; the cut A | B is one at n=2
        assert solved == [(2**n, 2**n)] * (2 if n == 2 else n + 1)
        everything = ["--reflect", "".join(letters)]
        solved_too, result_too = self.solves_and_result(argv + everything, monkeypatch, capsys)
        assert solved_too == solved  # the full-set reflection reads the state's spectrum
        # the reflections are reported in order, so the full set's comes right after A's
        full = result_too["criteria"].pop(-3)
        assert result_too["criteria"] == result["criteria"]
        assert (full["criterion"], full["subset"]) == ("reflection", list(range(1, n + 1)))
        feasible = result["criteria"][-2]
        assert (full["witness"], full["verdict"]) == (feasible["witness"], feasible["verdict"])

    @pytest.mark.parametrize("path", [BELL, UPB, NEAR_HERMITIAN], ids=lambda p: p.stem)
    @pytest.mark.parametrize("qubit", ["A", "B"])
    def test_one_qubit_reflection_and_reduction_share_one_solve(self, path, qubit, monkeypatch, capsys):
        both = ["analyze", str(path), "--reflect", qubit, "--reduction", qubit]
        solved, together = self.solves_and_result(both, monkeypatch, capsys)
        assert len(solved) == 2  # the state and the partial transpose on that qubit, which both read
        _, reflect = self.solves_and_result(["analyze", str(path), "--reflect", qubit], monkeypatch, capsys)
        _, reduction = self.solves_and_result(["analyze", str(path), "--reduction", qubit], monkeypatch, capsys)
        apart = {**reflect, "criteria": reflect["criteria"] + reduction["criteria"]}
        assert json.dumps(together, sort_keys=True) == json.dumps(apart, sort_keys=True)

    @pytest.mark.parametrize(
        "path,cut,rest,dim",
        [(BELL, "A", "B", 4), (UPB, "A", "BC", 8)],
        ids=["bell-A-B", "upb-A-BC"],
    )
    def test_a_cut_and_its_complement_share_one_solve(self, path, cut, rest, dim, monkeypatch, capsys):
        argv = ["analyze", str(path), "--ppt", cut, "--ppt", rest]
        solved, together = self.solves_and_result(argv, monkeypatch, capsys)
        assert solved == [(dim, dim), (dim, dim)]  # the state and one cut
        for report, side in zip(together["criteria"], (cut, rest)):
            alone_solved, alone = self.solves_and_result(["analyze", str(path), "--ppt", side], monkeypatch, capsys)
            assert alone_solved == [(dim, dim), (dim, dim)]
            assert report["subset"] == alone["criteria"][0]["subset"]
            assert report["verdict"] == alone["criteria"][0]["verdict"]
            assert abs(report["witness"] - alone["criteria"][0]["witness"]) <= 1e-15

    def test_two_qubit_reflection_and_reduction_solve_apart(self, monkeypatch, capsys):
        # R_AB rho = lift / 2 - rho, while the reduction criterion solves lift - rho
        argv = ["analyze", str(UPB), "--reflect", "AB", "--reduction", "AB"]
        solved, result = self.solves_and_result(argv, monkeypatch, capsys)
        assert len(solved) == 3
        reflection, reduction = (c["witness"] for c in result["criteria"])
        assert reflection != reduction


class TestInProcess:
    def test_repeated_calls_do_not_share_options(self, capsys):
        assert cli.main(["analyze", str(BELL), "--ppt", "A", "--reflect", "A"]) == 0
        first = json.loads(capsys.readouterr().out)["result"]["criteria"]
        assert [c["criterion"] for c in first] == ["ppt", "reflection"]
        assert cli.main(["analyze", str(BELL), "--feasible"]) == 0
        second = json.loads(capsys.readouterr().out)["result"]["criteria"]
        assert [c["criterion"] for c in second] == ["total-reflection"]

    def test_the_criteria_sort_and_deduplicate_parsed_subsets(self, capsys):
        assert cli._parse_subset("BA,A") == (2, 1, 1)
        assert cli.main(["analyze", str(UPB), "--ppt", "BA", "--reflect", "CAB", "--reduction", "b,a,a"]) == 0
        subsets = [c["subset"] for c in json.loads(capsys.readouterr().out)["result"]["criteria"]]
        assert subsets == [[1, 2], [1, 2, 3], [1, 2]]

    def test_the_parser_is_built_once_and_stays_public(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("argv", list(ARGV_FORMS.values()), ids=list(ARGV_FORMS))
    def test_the_command_parser_answers_as_the_full_parser(self, argv, capsys):
        # main reads argv exactly or hands it to the full parser; a fresh full parser is the reference
        try:
            expected = vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            refused = (exc.code, *capsys.readouterr())
            with pytest.raises(SystemExit) as caught:
                cli.main(argv)
            assert (caught.value.code, *capsys.readouterr()) == refused
        else:
            assert vars(cli._parse_args(argv)) == expected

    @pytest.mark.parametrize("name", list(ARGV_FORMS))
    def test_the_exact_reader_takes_only_exact_command_lines(self, name, capsys):
        argv = ARGV_FORMS[name]
        read = bool(argv) and argv[0] in cli._commands() and cli._read_exact(argv[0], argv[1:]) is not None
        assert read == (name in READ_EXACTLY)
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            # a refused form is never read exactly, so its message stays argparse's own
            assert not read

    def test_the_exact_reader_answers_as_the_full_parser_on_a_seeded_corpus(self, capsys):
        # every command line drawn, read exactly or not, parses to the reference's namespace or exit
        reference = cli.build_parser()
        rng = random.Random(2022)
        accepted = 0
        for _ in range(4000):
            name = rng.choice(list(cli._commands()))
            pool = [*cli._commands()[name]._option_string_actions, *EDGE_TOKENS]
            argv = [name, *rng.choices(pool, k=rng.randrange(8))]
            accepted += cli._read_exact(name, argv[1:]) is not None
            try:
                expected = vars(reference.parse_args(argv))
            except SystemExit as exc:
                refused = (exc.code, *capsys.readouterr())
                with pytest.raises(SystemExit) as caught:
                    cli._parse_args(argv)
                assert (caught.value.code, *capsys.readouterr()) == refused, argv
            else:
                assert vars(cli._parse_args(argv)) == expected, argv
        # the reader must take a share of the corpus, or the comparison shows nothing of it
        assert accepted >= 400

    @pytest.mark.parametrize("name", list(cli._commands()))
    def test_every_command_parser_keeps_the_exact_readers_premise(self, name):
        # _read_exact reads a command line as argparse does only for a parser of this form; one outside it fails here
        parser = cli._commands()[name]
        assert not parser._mutually_exclusive_groups
        assert parser.prefix_chars == "-" and parser.fromfile_prefix_chars is None
        # the reader fills positionals from the parser's own positional group, which must hold them all in order
        assert parser._positionals._group_actions == parser._get_positional_actions()
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.nargs in (None, 0), action.dest
            assert action.choices is None, action.dest
            assert not (action.required and action.option_strings), action.dest
            # argparse converts a string default with the action's type; the reader starts from defaults as they are
            assert not (isinstance(action.default, str) and action.type is not None), action.dest

    def test_near_tolerance_input_keeps_its_verdicts(self, capsys):
        # the anti-Hermitian defect (9e-11) passes the input check; a lift summed
        # without taking the Hermitian part first would push it past the tolerance
        argv = ["analyze", str(NEAR_HERMITIAN), "--ppt", "A", "--reflect", "AB", "--reduction", "AB"]
        assert cli.main(argv) == 0
        witnesses = [c["witness"] for c in json.loads(capsys.readouterr().out)["result"]["criteria"]]
        assert np.abs(np.array(witnesses) - [0.125, 0.125, 0.375]).max() < 1e-12


class TestDriverContract:
    """``cli.main`` builds every report and maps every error exit; the commands only compute."""

    COMMANDS = {
        "table1": (["table1"], "changes"),
        "upb-demo": (["upb-demo"], "reflected separable mixture"),
        "prop": (["prop", "--trials", "2"], "all passed"),
        "analyze": (["analyze", str(BELL), "--ppt", "A"], "state: n=2"),
    }

    @pytest.fixture(autouse=True)
    def default_tolerance(self, monkeypatch):
        monkeypatch.delenv("QREFLECT_TOL", raising=False)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_json_envelope(self, command, capsys):
        argv, _ = self.COMMANDS[command]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True) + "\n"
        assert set(doc) == {"command", "input_digest", "result", "wall_time_s"}
        assert doc["command"] == command
        assert (doc["input_digest"] is None) == (command != "analyze")
        assert doc["wall_time_s"] >= 0

    PLAIN_RUNS = {
        **{command: argv for command, (argv, _) in COMMANDS.items() if command != "analyze"},
        **ANALYZE_EVERY_FIXTURE,
    }

    @pytest.mark.parametrize("argv", list(PLAIN_RUNS.values()), ids=list(PLAIN_RUNS))
    def test_plain_prints_text_not_json(self, argv, capsys):
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert cli.main(argv + ["--plain"]) == 0
        out = capsys.readouterr().out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        if argv[0] == "table1":
            # no floats, so the same text on every platform
            assert out == (FIXTURES / "table1_plain.txt").read_text()
        elif argv[0] == "analyze":
            # each criterion line reads the verdict and witness of the JSON report
            state, *lines = out.splitlines()
            assert state.startswith(f"state: n={result['n']} purity={result['purity']:.12g} ")
            assert len(lines) == len(result["criteria"])
            for line, c in zip(lines, result["criteria"]):
                subset = [] if c["subset"] is None else [f"subset={c['subset']}"]
                words = [c["criterion"], f"verdict={c['verdict']}", f"witness={c['witness']:+.12g}", *subset]
                assert line.split(maxsplit=3) == words
        else:
            assert self.COMMANDS[argv[0]][1] in out

    @pytest.mark.parametrize(
        "argv,tol,code",
        [
            (["prop", "--trials", "0"], None, 2),
            (["analyze", str(UPB), "--ccn"], None, 3),
            (["analyze", str(BELL), "--ppt", "C"], None, 3),
            (["upb-demo"], "nan", 2),
        ],
        ids=["prop-no-trials", "ccn-odd-n", "ppt-missing-qubit", "upb-demo-nan-tolerance"],
    )
    def test_error_exit_prints_nothing_on_stdout(self, argv, tol, code, monkeypatch, capsys):
        if tol is not None:
            monkeypatch.setenv("QREFLECT_TOL", tol)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_ccn_on_an_odd_count_names_the_first_half_cut(self, capsys):
        assert cli.main(["analyze", str(UPB), "--ccn"]) == 3
        assert capsys.readouterr().err == "error: the first-half cut needs an even qubit count, got n=3\n"


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["table1"], 0),
            (["prop", "--trials", "5"], 0),
            (["prop", "--trials", "5", "--plain"], 0),
            (["prop", "--trials", "5", "--inject-mask-corruption"], 1),
        ],
        ids=["table1", "prop", "prop-plain", "prop-corrupted"],
    )
    def test_a_reader_that_closes_early_keeps_the_exit_code(self, argv, code):
        # the read end is closed before the command prints, so every write hits a broken pipe;
        # this used to print a BrokenPipeError traceback and exit 1 (a failed property suite)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "qreflect", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == code


class TestUpbDemo:
    def test_full_chain(self):
        proc = run_cli("upb-demo")
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["reflected_is_density"] is True
        assert result["components_all_nonpositive"] is True
        assert all(r["verdict"] == "separable-consistent" for r in result["ppt_cuts"])
        assert max(abs(o) for o in result["support_overlaps"]) < 1e-12
        assert set(result["cross_norms"]) == {"cut_1", "cut_2", "cut_3"}

    @pytest.mark.parametrize("setting", [None, "0"], ids=["default", "zero"])
    def test_the_reflected_mixture_is_read_off_the_separable_report(self, setting, monkeypatch, capsys):
        # the image is the complement of the separable mixture, so both fields come from one report
        if setting is not None:
            monkeypatch.setenv("QREFLECT_TOL", setting)
        tol = stokes.PSD_TOL if setting is None else float(setting)
        assert cli.main(["upb-demo"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        report = qr.total_reflection_feasible(qr.upb_separable(), tol)
        assert result["reflected_is_density"] is result["separable_feasible"]["exact_psd"] is True
        assert result["separable_feasible"] == report.extra
        assert np.float64(result["reflected_min_eig"]).tobytes() == np.float64(report.witness).tobytes()

    def test_one_producer_per_fact(self, monkeypatch, capsys):
        calls = TestSolveOnce.counting_calls(monkeypatch, ["eigvalsh", "svd"])
        assert cli.main(["upb-demo"]) == 0
        # the separable mixture, the complement's three PPT cuts and one stack of the four components;
        # one singular-value solve per cross norm, and no Pauli transform
        assert calls == {"eigvalsh": 5, "svd": 3, "to_stokes": 0, "from_stokes": 0}
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["cross_norms"] == {f"cut_{q}": qr.ccn(qr.upb_bound_entangled(), (q,)) for q in (1, 2, 3)}
        assert result["component_min_eigs"] == pytest.approx([-0.75] * 4, abs=1e-15)


class TestProp:
    def test_small_run_passes(self):
        proc = run_cli("prop", "--seed", "7", "--trials", "10")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["all_passed"] is True
        assert doc["result"]["seed"] == 7

    def test_corruption_control_fails_with_counterexample(self):
        proc = run_cli("prop", "--seed", "7", "--trials", "5", "--inject-mask-corruption")
        assert proc.returncode == 1
        failures = [r for r in json.loads(proc.stdout)["result"]["invariants"] if not r["passed"]]
        assert [f["name"] for f in failures] == ["mask_involution"]
        assert failures[0]["counterexample"]["format"] in ("hermitian", "stokes")

    def test_invalid_trials_rejected(self):
        proc = run_cli("prop", "--trials", "0")
        assert proc.returncode == 2

    def test_a_negative_seed_names_the_seed_rule(self, capsys):
        assert cli.main(["prop", "--seed", "-1", "--trials", "2"]) == 2
        assert capsys.readouterr() == ("", "error: seeds must be at least 0, got -1\n")

    def test_the_invariant_suite_is_imported_only_for_prop(self):
        code = 'import sys, qreflect.cli; assert "qreflect.properties" not in sys.modules'
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_default_run_passes_within_runtime_budget(self):
        # measured about 6.5 s at build time; pinned with 3x slack
        started = time.perf_counter()
        proc = run_cli("prop")
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["all_passed"] is True
        assert elapsed < 20.0
