import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import normbch
from normbch import augmented_matrix, empirical_rho, validate_params, varshamov_upper
from normbch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGencode:
    def test_535(self, tmp_path, capsys):
        out = tmp_path / "hq535.txt"
        code, stdout, _ = run(capsys, "gencode", "--q", "5", "--m", "3", "--d", "5", "--out", str(out))
        assert code == 0
        assert "n=125 rows=8 rank=8 dimension=117" in stdout
        header = out.read_text().splitlines()[0]
        assert header == "q=5 n=125 r=8 blocks=ones:1,pow1:3,pow2:3,norm:1"
        manifest = json.loads((tmp_path / "hq535.txt.manifest.json").read_text())
        assert manifest["subcommand"] == "gencode"
        assert str(out) in manifest["outputs"]

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bad.txt"
        code, _, stderr = run(capsys, "gencode", "--q", "3", "--m", "3", "--d", "5", "--out", str(out))
        assert code == 2
        assert "divides d-2" in stderr
        assert "below d-1" in stderr
        assert not out.exists()

    def test_relaxed_544(self, tmp_path, capsys):
        out = tmp_path / "hq544.txt"
        code, stdout, _ = run(
            capsys, "gencode", "--q", "5", "--m", "4", "--d", "4", "--relaxed", "--out", str(out)
        )
        assert code == 0
        assert "n=625" in stdout

    def test_reproducible_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gencode", "--q", "5", "--m", "2", "--d", "4", "--out", str(a))
        run(capsys, "gencode", "--q", "5", "--m", "2", "--d", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_shorter_matrix_replaces_longer_file(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        out.write_text("x" * 10_000)
        assert run(capsys, "gencode", "--q", "5", "--m", "2", "--d", "4", "--out", str(out))[0] == 0
        assert out.read_text() == augmented_matrix(validate_params(5, 2, 4)).to_text()

    def test_d6_member_576(self, tmp_path, capsys):
        # the smallest d = 6 member: n = 5^7, norm rows from GF(5^8)
        out = tmp_path / "h576.txt"
        code, stdout, _ = run(capsys, "gencode", "--q", "5", "--m", "7", "--d", "6", "--out", str(out))
        assert code == 0
        assert "n=78125 rows=24 rank=24 dimension=78101" in stdout
        assert "blocks=ones:1,pow1:7,pow2:7,pow3:7,norm:2" in stdout
        assert "matrix_sha256=351882e51900b173b0bab7ff28a4c826bca0d8e6277680d6c57065462e2a2be0" in stdout
        point = empirical_rho(augmented_matrix(validate_params(5, 7, 6)))
        assert point.redundancy == 24
        assert point.ratio == pytest.approx(24 / 7)
        assert point.ratio < varshamov_upper(6) == 4

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, stdout, _ = run(
            capsys, "gencode", "--q", "5", "--m", "2", "--d", "4", "--json", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n"] == 25 and payload["rank"] == 4


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("matrices")
    aug524 = base / "aug524.txt"
    aug535 = base / "aug535.txt"
    bch535 = base / "bch535.txt"
    assert main(["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", str(aug524)]) == 0
    assert main(["gencode", "--q", "5", "--m", "3", "--d", "5", "--out", str(aug535)]) == 0
    assert main(["gencode", "--q", "5", "--m", "3", "--d", "5", "--bch-only", "--out", str(bch535)]) == 0
    # aug535 under another block name, which the orbit route declines
    renamed535 = base / "renamed535.txt"
    renamed535.write_text(aug535.read_text().replace("norm:1", "x:1", 1))
    return {"aug524": aug524, "aug535": aug535, "bch535": bch535, "renamed535": renamed535}


class TestVerifyDistance:
    def test_certified(self, matrix_files, capsys):
        code, stdout, _ = run(
            capsys, "verify-distance", "--matrix", str(matrix_files["aug524"]), "--d", "4"
        )
        assert code == 0
        assert "verdict=certified" in stdout
        assert "subset_count=2300" in stdout

    def test_counterexample_exit_1(self, matrix_files, capsys):
        code, stdout, _ = run(
            capsys, "verify-distance", "--matrix", str(matrix_files["bch535"]), "--d", "5"
        )
        assert code == 1
        assert "counterexample_weight=4" in stdout

    def test_budget_exit_2(self, matrix_files, capsys):
        code, _, stderr = run(
            capsys,
            "verify-distance", "--matrix", str(matrix_files["aug535"]), "--d", "5",
            "--budget", "1000",
        )
        assert code == 2
        assert "9691375" in stderr

    def test_matrix_without_rows(self, tmp_path, capsys):
        # every column of an r = 0 matrix is a codeword of weight 1
        empty = tmp_path / "empty.txt"
        empty.write_text("q=5 n=3 r=0 blocks=x:0\n")
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(empty), "--d", "3")
        assert code == 1
        assert "subsets_examined=1\n" in stdout
        assert "counterexample_positions=1\n" in stdout
        assert stderr == ""

    def test_short_word_answers_before_the_memory_cap(self, tmp_path, capsys):
        # the weight-4 pass over all 2000 columns would exceed the cap; the first prefix already
        # holds the weight-2 word, so no wider pass runs
        wide = tmp_path / "wide.txt"
        wide.write_text("q=7 n=2000 r=2 blocks=dense:2\n" + ("1 " * 2000 + "\n") * 2)
        code, stdout, stderr = run(
            capsys,
            "verify-distance", "--matrix", str(wide), "--d", "5", "--budget", str(math.comb(2000, 4)),
        )
        assert code == 1
        assert "subsets_examined=1\n" in stdout
        assert "counterexample_positions=1,2\ncounterexample_coeffs=1,6\n" in stdout
        assert stderr == ""

    def test_short_word_answers_at_any_target(self, tmp_path, capsys):
        # (5,2,4) has weight-5 words; a target far beyond them needs no wide pass
        h = tmp_path / "h.txt"
        assert main(["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", str(h)]) == 0
        capsys.readouterr()
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(h), "--d", "12")
        assert code == 1
        assert "subsets_examined=1\n" in stdout
        assert "counterexample_positions=1,2,3,4,5\n" in stdout
        assert stderr == ""

    @pytest.mark.parametrize("name, d, subsets, positions, coeffs", [
        ("aug524", 20, 177100, "1,2,3,4,5", "1,4,4,2,4"),
        ("aug524", 26, 1, "1,2,3,4,5", "1,4,4,2,4"),
        ("aug535", 126, 1, "1,2,3,4,5,6,7,8,9", "1,3,1,3,3,4,3,1,1"),
    ], ids=["524-d20", "524-d26", "535-d126"])
    def test_dependent_first_columns_answer_at_once(self, matrix_files, capsys, name, d, subsets, positions,
                                                    coeffs):
        # d - 1 exceeds the rank, so the first d - 1 columns are the colex-first dependent subset;
        # the collision engine would need 100,822,924 half-vectors at (5,2,4), d = 20
        started = time.perf_counter()
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(matrix_files[name]), "--d", str(d))
        assert time.perf_counter() - started < 1.0
        assert (code, stderr) == (1, "")
        assert f"subset_count={subsets}\nsubsets_examined=1\n" in stdout
        assert f"counterexample_positions={positions}\ncounterexample_coeffs={coeffs}\n" in stdout

    def test_memory_cap_exit_2(self, matrix_files, capsys, monkeypatch):
        # with no word below weight 5, the engine reaches the weight-4 pass over all 125 columns,
        # which 4 MB refuses
        monkeypatch.setattr(normbch.verify, "MEMORY_CAP_BYTES", 4_000_000)
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(matrix_files["renamed535"]), "--d", "5")
        assert code == 2
        assert stdout == ""
        assert stderr == "budget exceeded: 155000 half-vectors needed, budget is 83333\n"

    def test_orbit_route_certifies_below_the_memory_cap(self, matrix_files, capsys, monkeypatch):
        # 1 MB is below the generic engine's weight-4 passes over the 64- and 125-column prefixes
        # of (5,3,5) (40,320 and 155,000 half-vectors, about 1.9 and 7.4 MB) and above the
        # representative search's
        monkeypatch.setattr(normbch.verify, "MEMORY_CAP_BYTES", 1_000_000)
        code, stdout, _ = run(capsys, "verify-distance", "--matrix", str(matrix_files["aug535"]), "--d", "5")
        assert code == 0
        assert "verdict=certified" in stdout
        assert "subsets_examined=9691375" in stdout
        # the base matrix's colex-first word lies within the 32-column prefix
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(matrix_files["bch535"]), "--d", "5")
        assert code == 1
        assert "subsets_examined=25307\n" in stdout
        assert "counterexample_positions=1,7,23,30\ncounterexample_coeffs=1,2,4,3\n" in stdout
        assert stderr == ""
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(matrix_files["renamed535"]), "--d", "5")
        assert code == 2
        assert stderr == "budget exceeded: 40320 half-vectors needed, budget is 20833\n"

    @pytest.mark.parametrize(
        "text",
        [None, "garbage\n1 0 1\n", "q=5 n=3 r=1 blocks=dense:1\n1 7 9\n",
         "q=40009 n=2 r=1 blocks=dense:1\n1 2\n", "q=5 n=3 r=1 blocks=dense:1\n1 " + "9" * 5000 + " 0\n"],
        ids=["missing-file", "garbage-header", "digits-out-of-range", "alphabet-beyond-int16",
             "entry-beyond-digit-limit"],
    )
    def test_bad_input_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(path), "--d", "3")
        assert code == 2
        assert stdout == ""
        assert len(stderr.strip().splitlines()) == 1
        if text is not None:
            assert stderr.startswith(f"parameter error: {path}:")  # names the file line

    @pytest.mark.parametrize("entry", ["+1", "-0", "\u0664", "9" * 19],
                             ids=["plus", "minus-zero", "arabic-indic", "beyond-int64"])
    def test_refused_entry_names_its_line(self, matrix_files, tmp_path, capsys, entry):
        lines = matrix_files["aug524"].read_text().splitlines(keepends=True)
        lines[2] = entry + lines[2][1:]
        path = tmp_path / "m.txt"
        path.write_text("".join(lines), encoding="utf-8")
        code, stdout, stderr = run(capsys, "verify-distance", "--matrix", str(path), "--d", "4")
        assert (code, stdout) == (2, "")
        assert stderr == f"parameter error: {path}:3: entry {entry!r} is not a digit in [0, 5)\n"

    def test_tab_separated_matrix_certifies_alike(self, matrix_files, tmp_path, capsys):
        header, body = matrix_files["aug524"].read_text().split("\n", 1)
        path = tmp_path / "m.txt"
        path.write_text(header + "\n" + body.replace(" ", "\t"))
        runs = [run(capsys, "verify-distance", "--matrix", str(p), "--d", "4") for p in (matrix_files["aug524"], path)]
        kept = [(code, re.sub(r"elapsed_s=\S+", "", stdout), stderr) for code, stdout, stderr in runs]
        assert kept[0] == kept[1]
        assert kept[0][0] == 0

    @given(data=st.data())
    def test_corrupted_matrix_file(self, matrix_files, tmp_path_factory, data):
        # Replace one token (a run of non-separators, or one of "=:,") of the
        # (5,2,4) or (5,3,5) file, verified at its own d; half the draws pick
        # from the header line.
        name, d = data.draw(st.sampled_from([("aug524", "4"), ("aug535", "5")]))
        text = matrix_files[name].read_text()
        tokens = list(re.finditer(r"[=:,]|[^\s=:,]+", text))
        header_tokens = sum(1 for tok in tokens if tok.start() < text.index("\n"))
        index = data.draw(st.one_of(st.integers(0, header_tokens - 1), st.integers(0, len(tokens) - 1)))
        new = data.draw(st.one_of(
            st.sampled_from(["", "0", "4", "5", "7", "-1", "40009", "9" * 30, "x", "\n", "=", ":", ","]),
            st.text(max_size=4)))
        tok = tokens[index]
        path = tmp_path_factory.mktemp("corrupt") / "m.txt"
        path.write_text(text[: tok.start()] + new + text[tok.end() :], encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify-distance", "--matrix", str(path), "--d", d])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1

    def test_json_and_cert_file(self, matrix_files, tmp_path, capsys):
        cert = tmp_path / "cert.txt"
        code, stdout, _ = run(
            capsys,
            "verify-distance", "--matrix", str(matrix_files["aug524"]), "--d", "4",
            "--json", "--out", str(cert),
        )
        assert code == 0
        assert json.loads(stdout)["verdict"] == "certified"
        assert "verdict=certified" in cert.read_text()
        assert (tmp_path / "cert.txt.manifest.json").exists()


class TestCheckLines:
    def test_524(self, capsys):
        code, stdout, _ = run(capsys, "check-lines", "--q", "5", "--m", "2", "--d", "4")
        assert code == 0
        assert "words_found=300" in stdout
        assert "violations=0" in stdout

    @pytest.mark.parametrize("qmd, words", [((101, 2, 4), 1716828300), ((29, 3, 5), 17397868761)], ids=str)
    def test_large_q_pinned(self, qmd, words, capsys):
        # one collision pass over the representatives' columns settles n = 10,201 and n = 24,389
        q, m, d = qmd
        budget = math.comb(q**m, d - 1)
        code, stdout, stderr = run(capsys, "check-lines", "--q", str(q), "--m", str(m), "--d", str(d),
                                   "--budget", str(budget))
        assert code == 0
        assert f"words_found={words}\non_line={words}\nviolations=0\n" in stdout
        assert stderr == ""

    def test_invalid_without_experimental(self, capsys):
        code, _, stderr = run(capsys, "check-lines", "--q", "5", "--m", "4", "--d", "5")
        assert code == 2
        assert "parameter error" in stderr

    def test_representative_search_within_memory_cap(self, capsys, monkeypatch):
        # the representative search of (5,2,5) fits in 20 kB, and the counts need nothing more
        monkeypatch.setattr(normbch.verify, "MEMORY_CAP_BYTES", 20_000)
        code, stdout, stderr = run(capsys, "check-lines", "--q", "5", "--m", "2", "--d", "5", "--experimental")
        assert code == 1
        assert "violations=200" in stdout
        assert stderr == ""

    def test_representative_search_refused_by_memory_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(normbch.verify, "MEMORY_CAP_BYTES", 5_000)
        code, stdout, stderr = run(capsys, "check-lines", "--q", "5", "--m", "2", "--d", "5", "--experimental")
        assert code == 2
        assert stdout == ""
        assert stderr == "budget exceeded: 184 half-vectors needed, budget is 111\n"

    def test_weight_beyond_length_finds_no_words(self, capsys):
        # no weight-39 word fits in n = 25 positions, so there is nothing to refuse
        code, stdout, stderr = run(capsys, "check-lines", "--q", "5", "--m", "2", "--d", "40", "--experimental")
        assert code == 0
        assert "words_found=0\non_line=0\nviolations=0\n" in stdout
        assert stderr == ""

    def test_745_counts_by_orbits(self, capsys):
        # m = 4 is not prime; 5,762,400 violating words are counted, never built
        budget = str(math.comb(2401, 4))
        code, stdout, stderr = run(capsys, "check-lines", "--q", "7", "--m", "4", "--d", "5", "--experimental",
                                   "--budget", budget)
        assert code == 1
        assert "words_found=10564400\non_line=4802000\nviolations=5762400\n" in stdout
        assert stderr == ""


class TestBounds:
    def test_single_pair(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--q", "5", "--d", "5")
        assert code == 0
        assert "best_upper=7/3 [norm-bch]" in stdout

    def test_table(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--table", "2..5", "4..6")
        assert code == 0
        assert "q=4" in stdout and "[quaternary-d6]" in stdout

    def test_json(self, capsys):
        code, stdout, _ = run(capsys, "bounds", "--q", "3", "--d", "4", "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["best_upper"] == "3449/2500"

    def test_missing_args(self, capsys):
        code, _, stderr = run(capsys, "bounds")
        assert code == 2


class TestReduce:
    def test_toy(self, tmp_path, capsys):
        src = tmp_path / "toy.cwl"
        src.write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n")
        out = tmp_path / "sub.cwl"
        code, stdout, _ = run(
            capsys,
            "reduce", "--input", str(src), "--q2", "4", "--subset", "0,1,2", "--out", str(out),
        )
        assert code == 0
        assert "achieved=3" in stdout
        assert "floor=2" in stdout
        assert out.read_text() == "0 0 0 0\n1 1 1 1\n2 2 2 2\n"
        manifest = json.loads((tmp_path / "sub.cwl.manifest.json").read_text())
        assert manifest["subcommand"] == "reduce"

    def test_sampled(self, tmp_path, capsys):
        src = tmp_path / "toy.cwl"
        src.write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n")
        code, stdout, _ = run(
            capsys,
            "reduce", "--input", str(src), "--q2", "4", "--subset", "0,1,2",
            "--trials", "32", "--seed", "5",
        )
        assert code == 0
        assert "mode=sampled" in stdout
        assert "guaranteed=false" in stdout

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "reduce", "--input", str(tmp_path / "missing"), "--q2", "2", "--subset", "0,1"
        )
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        src = tmp_path / "toy.cwl"
        src.write_text("0 0\n1 1\n")
        code, stdout, stderr = run(
            capsys, "reduce", "--input", str(src), "--q2", "2", "--subset", "0", "--trials", "0"
        )
        assert code == 2
        assert stdout == ""
        assert "at least one trial" in stderr

    @pytest.mark.parametrize("trials, hint", [(None, True), ("10000001", False)], ids=["exhaustive", "sampled"])
    def test_trials_hint_only_in_exhaustive_mode(self, tmp_path, capsys, trials, hint):
        src = tmp_path / "toy.cwl"
        src.write_text("0 0 0 0 0 0 0 0 0 0 0 0\n")
        argv = ["reduce", "--input", str(src), "--q2", "4", "--subset", "0,1"]
        code, _, stderr = run(capsys, *argv, *(["--trials", trials] if trials else []))
        assert code == 2
        assert stderr.startswith("budget exceeded:")
        assert ("pass --trials" in stderr) == hint

    @given(data=st.data())
    def test_corrupted_codeword_list(self, tmp_path_factory, data):
        # Replace one token (a run of non-whitespace) of a five-word list over Z_4.
        text = "0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n0 1 2 3\n"
        tokens = list(re.finditer(r"\S+", text))
        tok = tokens[data.draw(st.integers(0, len(tokens) - 1))]
        new = data.draw(st.one_of(
            st.sampled_from(["", "0", "3", "4", "-1", "+1", "1_0", "00", "9" * 30, "9" * 5000, "x", "\n",
                             "0 0", "1 2 3"]),
            st.text(max_size=4)))
        path = tmp_path_factory.mktemp("corrupt") / "code.cwl"
        path.write_text(text[: tok.start()] + new + text[tok.end() :], encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["reduce", "--input", str(path), "--q2", "4", "--subset", "0,1,2"])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith(f"parameter error: {path}")

    def test_bad_subset(self, tmp_path, capsys):
        src = tmp_path / "toy.cwl"
        src.write_text("0 0\n1 1\n")
        code, _, stderr = run(capsys, "reduce", "--input", str(src), "--q2", "2", "--subset", "0,7")
        assert code == 2
        assert "parameter error" in stderr


# Each case: argv (run in a directory holding aug524.txt, bch535.txt and
# toy.cwl), the exit code, the exact stdout with the elapsed_s value masked, and the
# exact contents of the --out file for the commands that write their
# text there.
_CERT_524 = (
    "verdict=certified",
    "distance_bound=4",
    "matrix_sha256=988c52af8609dcf38a38dff8c5e74de8f180eb900d4bd8cb1822c0ab2f8997ba",
    "subset_count=2300",
    "subsets_examined=2300",
    "threads=1",
    "elapsed_s=*",
)
_CEX_535 = (
    "verdict=counterexample",
    "distance_bound=5",
    "matrix_sha256=29c946851f3c25674f59365651ba32d8585896c1fbf1e4e7e021504d92115f54",
    "subset_count=9691375",
    "subsets_examined=25307",
    "threads=1",
    "elapsed_s=*",
    "counterexample_positions=1,7,23,30",
    "counterexample_coeffs=1,2,4,3",
    "counterexample_weight=4",
)
_LINES_524 = ("q=5 m=2 d=4", "weight=3", "subset_count=2300", "words_found=300", "on_line=300",
              "violations=0", "theorem_applies=true")
_LINES_525 = ("q=5 m=2 d=5", "weight=4", "subset_count=12650", "words_found=350", "on_line=150",
              "violations=200", "theorem_applies=false")
PINNED_TEXT = {
    "gencode-aug524": (
        ["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", "h.txt"], 0,
        ("wrote h.txt", "n=25 rows=4 rank=4 dimension=21", "blocks=ones:1,pow1:2,norm:1",
         "matrix_sha256=988c52af8609dcf38a38dff8c5e74de8f180eb900d4bd8cb1822c0ab2f8997ba"), None),
    "gencode-bch535": (
        ["gencode", "--q", "5", "--m", "3", "--d", "5", "--bch-only", "--out", "h.txt"], 0,
        ("wrote h.txt", "n=125 rows=7 rank=7 dimension=118", "blocks=ones:1,pow1:3,pow2:3",
         "matrix_sha256=29c946851f3c25674f59365651ba32d8585896c1fbf1e4e7e021504d92115f54"), None),
    "verify-distance-certified": (
        ["verify-distance", "--matrix", "aug524.txt", "--d", "4", "--out", "cert.txt"], 0, _CERT_524, _CERT_524),
    "verify-distance-counterexample": (
        ["verify-distance", "--matrix", "bch535.txt", "--d", "5", "--out", "cert.txt"], 1, _CEX_535, _CEX_535),
    "check-lines-proven": (
        ["check-lines", "--q", "5", "--m", "2", "--d", "4", "--out", "lines.txt"], 0, _LINES_524, _LINES_524),
    "check-lines-experimental": (
        ["check-lines", "--q", "5", "--m", "2", "--d", "5", "--experimental", "--out", "lines.txt"], 1,
        _LINES_525, _LINES_525),
    "bounds-two-specials": (
        ["bounds", "--q", "3", "--d", "4"], 0,
        ("q=3 d=4", "hamming_lower=1", "varshamov_upper=2", "gilbert_upper=3", "bch_upper=2",
         "new_upper=3/2", "special_caps-general=1.4685", "special_ternary-caps-record=3449/2500",
         "best_upper=3449/2500 [ternary-caps-record]", "exact=false"), None),
    "bounds-no-special": (
        ["bounds", "--q", "2", "--d", "7"], 0,
        ("q=2 d=7", "hamming_lower=3", "varshamov_upper=5", "gilbert_upper=6", "bch_upper=3",
         "new_upper=21/5", "best_upper=3 [bch]", "exact=true"), None),
    "bounds-norm-bch": (
        ["bounds", "--q", "5", "--d", "5"], 0,
        ("q=5 d=5", "hamming_lower=2", "varshamov_upper=3", "gilbert_upper=4", "bch_upper=3",
         "new_upper=7/3", "special_d5-family=7/3", "best_upper=7/3 [norm-bch]", "exact=false"), None),
    "bounds-quaternary-d6": (
        ["bounds", "--q", "4", "--d", "6"], 0,
        ("q=4 d=6", "hamming_lower=2", "varshamov_upper=4", "gilbert_upper=5", "bch_upper=3",
         "new_upper=13/4", "special_d6-family=3", "special_quaternary-d6=17/6",
         "best_upper=17/6 [quaternary-d6]", "exact=false"), None),
    "bounds-table": (
        ["bounds", "--table", "2..5", "4..6"], 0,
        ("q\\d   d=4                              d=5                              d=6                              ",
         "q=2   1 [bch] =                        2 [bch] =                        2 [bch] =                        ",
         "q=3   3449/2500 [ternary-caps-record]  2 [bch] =                        5/2 [ternary-d6]                 ",
         "q=4   29/20 [quaternary-caps]          2 [quaternary-d5] =              17/6 [quaternary-d6]             ",
         "q=5   1.4913 [caps-general]            7/3 [norm-bch]                   3 [d6-family]                    "),
        None),
    "reduce-exhaustive": (
        ["reduce", "--input", "toy.cwl", "--q2", "4", "--subset", "0,1,2", "--out", "sub.cwl"], 0,
        ("mode=exhaustive", "shift=0,0,0,0", "achieved=3", "average=1.2656", "floor=2", "guaranteed=true",
         "subcode_size=3"),
        ("0 0 0 0", "1 1 1 1", "2 2 2 2")),
    "reduce-sampled": (
        ["reduce", "--input", "toy.cwl", "--q2", "4", "--subset", "0,1,2", "--trials", "32", "--seed", "5"], 0,
        ("mode=sampled", "shift=1,1,1,1", "achieved=3", "average=1.2656", "floor=2", "guaranteed=false",
         "subcode_size=3"), None),
}


def _mask_elapsed(text):
    """text with each elapsed_s value, as a text line or a JSON key, replaced by *."""
    text = re.sub(r"^elapsed_s=\d+\.\d{3}$", "elapsed_s=*", text, flags=re.M)
    return re.sub(r'"elapsed_s": [0-9.e+-]+', '"elapsed_s": "*"', text)


@pytest.fixture
def pin_dir(matrix_files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NORMBCH_BUDGET", raising=False)
    for name in ("aug524", "bch535"):
        (tmp_path / f"{name}.txt").write_bytes(matrix_files[name].read_bytes())
    (tmp_path / "toy.cwl").write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n")
    return tmp_path


@pytest.mark.parametrize("argv, exit_code, stdout, written", PINNED_TEXT.values(), ids=PINNED_TEXT.keys())
def test_text_pinned(pin_dir, capsys, argv, exit_code, stdout, written):
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert err == ""
    assert _mask_elapsed(out) == "".join(line + "\n" for line in stdout)
    if written is not None:
        text = (pin_dir / argv[argv.index("--out") + 1]).read_text()
        assert _mask_elapsed(text) == "".join(line + "\n" for line in written)


def _matches(token, value):
    """Whether a text token shows the JSON value: bools lower case, lists
    comma-joined, a dict as name:count,..., floats to the token's decimals."""
    if isinstance(value, bool):
        return token == str(value).lower()
    if isinstance(value, dict):
        return dict(item.split(":") for item in token.split(",")) == {k: str(v) for k, v in value.items()}
    if isinstance(value, list):
        return token == ",".join(str(v) for v in value)
    if isinstance(value, float):
        return token == f"{value:.{len(token.partition('.')[2])}f}"
    return token == str(value)


@pytest.mark.parametrize("argv", [argv for argv, *_ in PINNED_TEXT.values() if "--table" not in argv],
                         ids=[key for key, (argv, *_) in PINNED_TEXT.items() if "--table" not in argv])
def test_text_renders_the_json_record(pin_dir, capsys, argv):
    _, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, *argv, "--json")
    record = json.loads(out)
    tokens = [tok.partition("=") for tok in text.split() if "=" in tok]
    assert tokens
    for key, _, value in tokens:
        if key == "elapsed_s":  # wall clock of two separate runs
            assert isinstance(record[key], float)
        else:
            assert _matches(value, record[key]), key


def test_json_keys_are_the_text_keys(pin_dir, capsys):
    _, out, _ = run(capsys, "verify-distance", "--matrix", "bch535.txt", "--d", "5", "--json")
    record = json.loads(out)
    assert "counterexample" not in record
    assert record["counterexample_positions"] == [1, 7, 23, 30]
    assert record["counterexample_coeffs"] == [1, 2, 4, 3]
    assert record["counterexample_weight"] == 4
    _, out, _ = run(capsys, "bounds", "--q", "3", "--d", "4", "--json")
    record = json.loads(out)
    assert "special" not in record
    assert record["special_caps-general"] == "1.4685"
    assert record["special_ternary-caps-record"] == "3449/2500"
    assert record["best_source"] == "ternary-caps-record" and record["consistent"] is True
    singles =[json.loads(run(capsys, "bounds", "--q", str(q), "--d", str(d), "--json")[1])
               for q in (2, 3) for d in (4, 5)]
    assert json.loads(run(capsys, "bounds", "--table", "2..3", "4..5", "--json")[1]) == singles


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "normbch" in capsys.readouterr().out


def _child_env() -> dict:
    """The environment for a fresh interpreter: this process's, with the
    package under test first on PYTHONPATH and NORMBCH_BUDGET unset."""
    env = dict(os.environ)
    env.pop("NORMBCH_BUDGET", None)
    src = str(Path(normbch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _import_normbch(openblas_threads):
    """OPENBLAS_NUM_THREADS and the thread count of a fresh process after `import normbch.field`,
    which loads numpy (a bare `import normbch` does not)."""
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    probe = "import os, normbch.field; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return value, int(threads)


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_numpy_loads_without_a_blas_thread():
    assert _import_normbch(None) == ("1", 1)


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_caller_blas_threads_are_kept():
    assert _import_normbch("2")[0] == "2"


# Each case: argv with {missing} (an --out path in a missing directory),
# {aug524} (a matrix file), {toy} (a codeword list), {long} (one
# binary word of length 15,000), {in535} (a copy of the (5,3,5)
# matrix, named as the manifest of --out {tmp}/in535) and {header} (a
# directory of header-only matrix files, HEADERS) filled in, the
# NORMBCH_BUDGET value or None, and the prefix of the one stderr line,
# filled in too.
EXIT_2_CASES = {
    "verify-distance-out-is-matrix": (
        ["verify-distance", "--matrix", "{in535}", "--d", "5", "--out", "{in535}"], None, "file error:"),
    "verify-distance-out-is-matrix-by-another-path": (
        ["verify-distance", "--matrix", "{in535}", "--d", "5", "--out", "{tmp}/./in535.manifest.json"],
        None, "file error:"),
    "verify-distance-manifest-is-matrix": (
        ["verify-distance", "--matrix", "{in535}", "--d", "5", "--out", "{tmp}/in535"], None, "file error:"),
    "verify-distance-out-is-missing-matrix": (  # not created as an empty file first
        ["verify-distance", "--matrix", "{tmp}/m.txt", "--d", "3", "--out", "{tmp}/m.txt"], None, "file error:"),
    "reduce-out-is-missing-input": (
        ["reduce", "--input", "{tmp}/x.cwl", "--q2", "2", "--subset", "0", "--out", "{tmp}/x.cwl"],
        None, "file error:"),
    "gencode-out-missing-dir": (
        ["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", "{missing}"], None, "file error:"),
    "verify-distance-out-missing-dir": (
        ["verify-distance", "--matrix", "{aug524}", "--d", "4", "--out", "{missing}"], None, "file error:"),
    "check-lines-out-missing-dir": (
        ["check-lines", "--q", "5", "--m", "2", "--d", "4", "--out", "{missing}"], None, "file error:"),
    "gencode-out-empty": (["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", ""], None, "file error:"),
    "check-lines-out-empty": (["check-lines", "--q", "5", "--m", "2", "--d", "4", "--out", ""], None, "file error:"),
    "reduce-out-missing-dir": (
        ["reduce", "--input", "{toy}", "--q2", "4", "--subset", "0,1,2", "--out", "{missing}"],
        None, "file error:"),
    "gencode-d3": (["gencode", "--q", "5", "--m", "2", "--d", "3", "--out", "{tmp}/d3.txt"],
                   None, "parameter error:"),
    "gencode-335": (["gencode", "--q", "3", "--m", "3", "--d", "5", "--out", "{tmp}/335.txt"],
                    None, "parameter error: invalid parameters:"),
    "bounds-table-d1": (["bounds", "--table", "2..3", "1..4"], None, "parameter error:"),
    "bounds-table-reversed": (["bounds", "--table", "3..2", "4..5"], None, "parameter error:"),
    "bounds-table-beyond-cell-cap": (["bounds", "--table", "2..2000", "3..60", "--json"], None,
                                     "budget exceeded: 115942 table cells needed, budget is 100000"),
    "bounds-table-beyond-int64": (["bounds", "--table", "2..99999999999999999999", "3..4"], None,
                                 "budget exceeded: about 10^20 table cells needed, budget is 100000"),
    "verify-distance-threads-below-1": (
        ["verify-distance", "--matrix", "{aug524}", "--d", "4", "--threads", "-1"], None, "parameter error:"),
    "reduce-subset-not-integers": (
        ["reduce", "--input", "{toy}", "--q2", "4", "--subset", "0,x"],
        None, "parameter error: --subset takes comma-separated integers such as 0,1,2, got '0,x'"),
    "reduce-negative-trials": (
        ["reduce", "--input", "{toy}", "--q2", "4", "--subset", "0,1,2", "--trials", "-3"],
        None, "parameter error:"),
    "verify-distance-malformed-budget": (
        ["verify-distance", "--matrix", "{aug524}", "--d", "4"], "2e7", "normbch verify-distance: error:"),
    "check-lines-malformed-budget": (
        ["check-lines", "--q", "5", "--m", "2", "--d", "4"], "2e7", "normbch check-lines: error:"),
    "gencode-m-beyond-field-budget": (
        ["gencode", "--q", "5", "--m", "3000000", "--d", "5", "--out", "{tmp}/x.txt"],
        None, "parameter error: invalid parameters:"),
    "gencode-m-beyond-field-budget-relaxed": (
        ["gencode", "--q", "5", "--m", "100000000", "--d", "5", "--relaxed", "--out", "{tmp}/x.txt"],
        None, "parameter error: invalid parameters:"),
    "gencode-huge-d": (["gencode", "--q", "5", "--m", "3", "--d", "100000", "--out", "{tmp}/x.txt"],
                       None, "parameter error: invalid parameters:"),
    "check-lines-m-beyond-field-budget": (
        ["check-lines", "--q", "5", "--m", "3000000", "--d", "5", "--experimental"], None, "parameter error:"),
    "check-lines-q-beyond-int16-experimental": (  # the alphabet rule before the subset budget
        ["check-lines", "--q", "40009", "--m", "1", "--d", "4", "--experimental"],
        None, "parameter error: matrix construction needs a prime q and positive m: q=40009 exceeds 32767"),
    "check-lines-field-beyond-budget-experimental": (  # the field budget before the subset budget
        ["check-lines", "--q", "5", "--m", "9", "--d", "4", "--experimental"],
        None, "parameter error: field size 5^9 exceeds the budget 1048576"),
    "check-lines-576-beyond-subset-budget": (
        ["check-lines", "--q", "5", "--m", "7", "--d", "6"],
        None, "budget exceeded: about 10^22 subsets needed, budget is 20000000"),
    "gencode-776-norm-field-beyond-budget": (
        ["gencode", "--q", "7", "--m", "7", "--d", "6", "--out", "{tmp}/x.txt"],
        None, "parameter error: field size 7^8 exceeds the budget 1048576"),
    "gencode-q-beyond-int16": (
        ["gencode", "--q", "40009", "--m", "1", "--d", "4", "--relaxed", "--out", "{tmp}/x.txt"],
        None, "parameter error: invalid parameters:"),
    "reduce-q2-beyond-budget": (
        ["reduce", "--input", "{toy}", "--q2", "1000000000000", "--subset", "0,1,2"], None, "budget exceeded:"),
    "reduce-q2-beyond-budget-sampled": (
        ["reduce", "--input", "{toy}", "--q2", "1000000000000", "--subset", "0,1,2", "--trials", "1"],
        None, "budget exceeded:"),
    "reduce-trials-beyond-budget": (
        ["reduce", "--input", "{toy}", "--q2", "4", "--subset", "0,1,2", "--trials", "10000001"],
        None, "budget exceeded:"),
    "verify-distance-n-beyond-int64": (
        ["verify-distance", "--matrix", "{header}/n-2^63", "--d", "2"],
        None, "parameter error: {header}/n-2^63:1: n=9223372036854775808 exceeds the field size budget 1048576"),
    "verify-distance-n-at-int64-max": (
        ["verify-distance", "--matrix", "{header}/n-2^63-1", "--d", "2"],
        None, "parameter error: {header}/n-2^63-1:1: n=9223372036854775807 exceeds the field size budget"),
    "verify-distance-n-beyond-field-budget": (
        ["verify-distance", "--matrix", "{header}/n-2^20+1", "--d", "2"],
        None, "parameter error: {header}/n-2^20+1:1: n=1048577 exceeds the field size budget"),
    "verify-distance-q-beyond-int16": (
        ["verify-distance", "--matrix", "{header}/q-32771", "--d", "2"],
        None, "parameter error: {header}/q-32771:1: q=32771 exceeds 32767, the largest alphabet"),
    "reduce-count-beyond-digit-limit": (  # 2^15000 shifts: a count of 4516 digits
        ["reduce", "--input", "{long}", "--q2", "2", "--subset", "0"],
        None, "budget exceeded: about 10^4515 shifts needed, budget is 10000000"),
}


# Header-only matrix files at the reader's limits: file name -> text.  The
# refused ones are EXIT_2_CASES; test_header_limits_accepted reads the others.
HEADERS = {
    "n-2^63": "q=5 n=9223372036854775808 r=0 blocks=a:0\n",
    "n-2^63-1": "q=5 n=9223372036854775807 r=0 blocks=a:0\n",
    "n-2^20+1": "q=5 n=1048577 r=0 blocks=a:0\n",
    "n-2^20": "q=5 n=1048576 r=0 blocks=a:0\n",
    "q-32771": "q=32771 n=2 r=1 blocks=a:1\n1 32770\n",
    "q-32749": "q=32749 n=2 r=1 blocks=a:1\n1 32748\n",
}


def _headers(tmp_path) -> Path:
    directory = tmp_path / "headers"
    directory.mkdir(exist_ok=True)
    for name, text in HEADERS.items():
        (directory / name).write_text(text)
    return directory


def _fill(argv, matrix_files, tmp_path):
    toy = tmp_path / "toy.cwl"
    toy.write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n")
    long = tmp_path / "long.cwl"
    long.write_text(" ".join(["1"] * 15000) + "\n")
    in535 = tmp_path / "in535.manifest.json"
    in535.write_bytes(matrix_files["aug535"].read_bytes())
    paths = {"missing": tmp_path / "no-such-dir" / "out.txt", "aug524": matrix_files["aug524"],
             "toy": toy, "long": long, "in535": in535, "tmp": tmp_path, "header": _headers(tmp_path)}
    return [a.format(**paths) for a in argv]


def _snapshot(root) -> dict:
    """Every path under root, with its bytes when it is a file."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("argv, budget, prefix", EXIT_2_CASES.values(), ids=EXIT_2_CASES.keys())
def test_exit_2_contract(matrix_files, tmp_path, capsys, monkeypatch, argv, budget, prefix):
    if budget is None:
        monkeypatch.delenv("NORMBCH_BUDGET", raising=False)
    else:
        monkeypatch.setenv("NORMBCH_BUDGET", budget)
    *argv, prefix = _fill([*argv, prefix], matrix_files, tmp_path)
    files = _snapshot(tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith(prefix)
    assert _snapshot(tmp_path) == files  # no file or directory created, no file changed


@pytest.mark.parametrize("case, unbuilt", [
    ("check-lines-576-beyond-subset-budget", ["normbch.verify.bch_matrix", "normbch.construct.make_field"]),
    ("gencode-776-norm-field-beyond-budget", ["normbch.construct.bch_matrix"]),
])
def test_refused_before_the_build(matrix_files, tmp_path, capsys, monkeypatch, case, unbuilt):
    # the refusals of EXIT_2_CASES, with what they must not build patched to fail
    def built(*args, **kwargs):
        raise AssertionError("built before the refusal")

    for target in unbuilt:
        monkeypatch.setattr(target, built)
    monkeypatch.delenv("NORMBCH_BUDGET", raising=False)
    argv, _, message = EXIT_2_CASES[case]
    code, stdout, stderr = run(capsys, *_fill(argv, matrix_files, tmp_path))
    assert (code, stdout, stderr) == (2, "", message + "\n")


@pytest.mark.parametrize("error", [RuntimeError("3 on-line representatives of weight 3, expected 1"), MemoryError()])
def test_internal_error_exits_70(capsys, monkeypatch, error):
    # a failed self-check or exhausted memory is a bug, never a counterexample (1) or a refusal (2)
    def survey(*args, **kwargs):
        raise error

    monkeypatch.setattr("normbch.verify._survey", survey)
    code, stdout, stderr = run(capsys, "check-lines", "--q", "5", "--m", "2", "--d", "4")
    assert (code, stdout) == (70, "")
    assert stderr.startswith("Traceback (most recent call last):\n")
    assert stderr.endswith("".join(traceback.format_exception_only(error)))


@pytest.mark.parametrize("name, code, verdict", [("n-2^20", 1, "counterexample"), ("q-32749", 0, "certified")])
def test_header_limits_accepted(tmp_path, capsys, name, code, verdict):
    # the largest length and alphabet the reader takes, beside the refusals of EXIT_2_CASES
    got, stdout, _ = run(capsys, "verify-distance", "--matrix", str(_headers(tmp_path) / name), "--d", "2")
    assert (got, stdout.splitlines()[0]) == (code, f"verdict={verdict}")


def test_matrix_file_reads_as_utf8_in_any_locale(tmp_path):
    # a block name the header rule takes, written as _run writes, read back under an ASCII locale; and
    # the same letter in a codeword list, refused by its line, which stderr escapes in that locale
    matrix, words = tmp_path / "m.txt", tmp_path / "w.cwl"
    matrix.write_bytes("q=5 n=2 r=1 blocks=\u00e9:1\n1 2\n".encode("utf-8"))
    words.write_bytes("0 1\n1 \u00e9\n".encode("utf-8"))
    env = dict(_child_env(), PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    runs = [(["verify-distance", "--matrix", str(matrix), "--d", "2"], 0, ["verdict=certified"], ""),
            (["reduce", "--input", str(words), "--q2", "2", "--subset", "0,1"], 2, [],
             f"parameter error: {words}:2: symbol '\\xe9' is not a digit in [0, 2)\n")]
    for args, code, stdout, stderr in runs:
        argv = [sys.executable, "-m", "normbch.cli", *args]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout.splitlines()[:1], proc.stderr) == (code, stdout, stderr)


# Each writing subcommand: argv without --out, as in EXIT_2_CASES, and the engine it runs.
WRITERS = {
    "gencode": (["gencode", "--q", "5", "--m", "2", "--d", "4"], "normbch.construct.augmented_matrix"),
    "verify-distance": (["verify-distance", "--matrix", "{aug524}", "--d", "4"],
                        "normbch.verify.min_distance_at_least"),
    "check-lines": (["check-lines", "--q", "5", "--m", "2", "--d", "4"], "normbch.verify.verify_lines_theorem"),
    "reduce": (["reduce", "--input", "{toy}", "--q2", "4", "--subset", "0,1,2"], "normbch.reduce.reduce_alphabet"),
}


def _must_not_run(*args, **kwargs):
    raise AssertionError("the engine ran before --out and its manifest were opened")


@pytest.mark.parametrize("blocked", ["out-dir-missing", "manifest-is-dir"])
@pytest.mark.parametrize("argv, engine", WRITERS.values(), ids=WRITERS.keys())
def test_unwritable_out_fails_before_the_build(matrix_files, tmp_path, capsys, monkeypatch, argv, engine, blocked):
    monkeypatch.setattr(engine, _must_not_run)
    outdir = tmp_path / "out"
    outdir.mkdir()
    if blocked == "out-dir-missing":
        out = outdir / "no-such-dir" / "x.txt"
    else:  # a directory where the manifest goes
        out = outdir / "x.txt"
        (outdir / "x.txt.manifest.json").mkdir()
    code, stdout, stderr = run(capsys, *_fill(argv, matrix_files, tmp_path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("file error:")
    assert not out.exists()


@pytest.mark.parametrize("argv, engine", WRITERS.values(), ids=WRITERS.keys())
def test_failed_build_keeps_out_as_it_was(matrix_files, tmp_path, capsys, monkeypatch, argv, engine):
    def failed_build(*args, **kwargs):
        raise ValueError("no field within the budget")

    monkeypatch.setattr(engine, failed_build)
    outdir = tmp_path / "out"
    outdir.mkdir()
    existing, absent = outdir / "existing.txt", outdir / "absent.txt"
    held = b"q=5 n=2 r=1 blocks=dense:1\n1 2\n" * 50
    existing.write_bytes(held)
    (outdir / "existing.txt.manifest.json").write_bytes(held[:40])
    for out in (existing, absent):
        code, stdout, stderr = run(capsys, *_fill(argv, matrix_files, tmp_path), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == "parameter error: no field within the budget\n"
    assert existing.read_bytes() == held
    assert (outdir / "existing.txt.manifest.json").read_bytes() == held[:40]
    assert sorted(p.name for p in outdir.iterdir()) == ["existing.txt", "existing.txt.manifest.json"]


def test_gencode_hashes_its_text_once(tmp_path, capsys, monkeypatch):
    """matrix_sha256 and the manifest's output hash come from one pass over the
    matrix text, and no output file is read back."""
    hashed, opened = [], []

    def counting_hash(data, real=normbch._sha256_hex):
        hashed.append(len(data))
        return real(data)

    def recording_open(path, mode="r", *args, **kwargs):
        opened.append((os.fspath(path), mode))
        return open(path, mode, *args, **kwargs)

    for module in (normbch.cli, normbch.construct):
        monkeypatch.setattr(module, "_sha256_hex", counting_hash)
    monkeypatch.setattr(normbch.cli, "open", recording_open, raising=False)
    out = tmp_path / "h.txt"
    code, stdout, _ = run(capsys, "gencode", "--q", "5", "--m", "5", "--d", "5", "--out", str(out))
    assert code == 0
    data = out.read_bytes()
    assert hashed == [len(data)]
    assert opened == [(str(out), "ab"), (f"{out}.manifest.json", "ab")]
    digest = hashlib.sha256(data).hexdigest()
    assert f"matrix_sha256={digest}\n" in stdout
    assert json.loads(Path(f"{out}.manifest.json").read_text())["outputs"] == {str(out): digest}


@pytest.mark.parametrize("case", ["check-lines-out-missing-dir", "bounds-table-d1", "bounds-table-beyond-int64",
                                  "reduce-q2-beyond-budget"])
def test_exit_2_contract_entry_point(matrix_files, tmp_path, case):
    argv, _, prefix = EXIT_2_CASES[case]
    proc = subprocess.run(
        [sys.executable, "-m", "normbch.cli", *_fill(argv, matrix_files, tmp_path)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix)


def _run_buffered(argv, buffered=True, stdout=subprocess.PIPE, command=("-m", "normbch.cli")):
    """A fresh `python -m normbch.cli argv` (or another command) whose stdout is block-buffered, or
    unbuffered as PYTHONUNBUFFERED makes it; stdout and stderr are captured unless stdout is given."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *command, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=120)


def _run_into_closed_pipe(argv, buffered, command=("-m", "normbch.cli")):
    # The read end is closed before the child starts, so its first write to
    # stdout, or main's flush of a buffered one, fails with EPIPE, as when
    # `| head` has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run_buffered(argv, buffered, write_end, command)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["bounds", "--table", "2..9", "3..8", "--json"], ["bounds", "--q", "7", "--d", "5"]],
                         ids=["table-json", "single"])
def test_closed_stdout_exits_141_quietly(argv, buffered):
    proc = _run_into_closed_pipe(argv, buffered)
    assert proc.stderr == ""  # neither "file error:" nor a BrokenPipeError report
    assert proc.returncode == 141


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--version"], ["gencode", "--help"]], ids=["version", "help"])
def test_closed_stdout_after_version_or_help(argv, buffered):
    # argparse prints these and exits inside parse_args; unbuffered, it
    # swallows the write error itself and exits 0
    proc = _run_into_closed_pipe(argv, buffered)
    assert proc.stderr == ""  # no "Exception ignored ... BrokenPipeError" at interpreter exit
    assert proc.returncode == 141 if buffered else proc.returncode in (0, 141)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails with ENOSPC")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["bounds", "--q", "5", "--d", "5"], ["bounds", "--table", "2..300", "3..60"]],
                         ids=["single", "table"])
def test_full_stdout_exits_2_with_one_line(argv, buffered):
    # buffered, the single record fails at pipe_safe's flush and the table at _run's write; a failed
    # flush keeps its bytes, and nothing may flush them again into a second report or exit code 120
    with open("/dev/full", "w") as full:
        proc = _run_buffered(argv, buffered, full)
    assert (proc.returncode, proc.stderr) == (2, "file error: [Errno 28] No space left on device\n")


# A fresh interpreter registers an atexit handler, then runs argv through cli_entry, the
# function behind `python -m normbch.cli` and the `normbch` script.  Unless its first
# argument is "-", it first patches the bounds engine to raise the builtin exception of that name.
ENTRY_PROBE = (
    "import atexit, builtins, sys\n"
    "import normbch.bounds\n"
    "from normbch import cli\n"
    "atexit.register(sys.stderr.write, 'atexit handler ran\\n')\n"
    "error = sys.argv.pop(1)\n"
    "def engine(*args):\n"
    "    raise getattr(builtins, error)('patched engine')\n"
    "if error != '-':\n"
    "    normbch.bounds.best_known = engine\n"
    "cli.cli_entry()\n"
)
# Each case: the exception the engine raises or "-", argv, the exit code, and the first line of
# stdout, the first line of stderr and the last line of stderr, each as a list of none or one.
TRACEBACK = "Traceback (most recent call last):"
ENTRY_CASES = {
    "ok": ("-", ["bounds", "--q", "7", "--d", "5"], 0, ["q=7 d=5"], [], []),
    "counterexample": ("-", ["check-lines", "--q", "5", "--m", "2", "--d", "5", "--experimental"], 1,
                       ["q=5 m=2 d=5"], [], []),
    "parameter-error": ("-", ["bounds", "--table", "2..1", "3..4"], 2, [],
                        ["parameter error: table range 2..1 is empty: its lower end exceeds its upper end"],
                        ["parameter error: table range 2..1 is empty: its lower end exceeds its upper end"]),
    "internal-error": ("RuntimeError", ["bounds", "--q", "7", "--d", "5"], 70, [], [TRACEBACK],
                       ["RuntimeError: patched engine"]),
}


@pytest.mark.parametrize("error, argv, code, stdout, stderr_first, stderr_last", ENTRY_CASES.values(),
                         ids=ENTRY_CASES.keys())
def test_entry_point_ends_without_teardown(error, argv, code, stdout, stderr_first, stderr_last):
    proc = _run_buffered([error, *argv], command=("-c", ENTRY_PROBE))
    err = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout.splitlines()[:1], err[:1], err[-1:]) == (code, stdout, stderr_first,
                                                                                  stderr_last)
    assert "atexit handler ran" not in proc.stderr  # os._exit skips it


def test_entry_point_closed_stdout_ends_without_teardown():
    proc = _run_into_closed_pipe(["-", "bounds", "--q", "7", "--d", "5"], True, command=("-c", ENTRY_PROBE))
    assert (proc.returncode, proc.stderr) == (141, "")


def test_escaped_exception_ends_the_normal_way():
    # main maps no KeyboardInterrupt, so the process ends as Python ends it: traceback, atexit, SIGINT
    proc = _run_buffered(["KeyboardInterrupt", "bounds", "--q", "7", "--d", "5"], command=("-c", ENTRY_PROBE))
    err = proc.stderr.splitlines()
    assert (proc.returncode, err[:1], err[-2:]) == (-signal.SIGINT, [TRACEBACK],
                                                    ["KeyboardInterrupt: patched engine", "atexit handler ran"])


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_large_buffered_output_arrives_complete(tmp_path, capsys, fmt):
    # no flush follows the last write but pipe_safe's, before os._exit: the bytes must all be out by then
    argv = ["bounds", "--table", "2..300", "3..60", *fmt]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    assert fmt or len(expected.encode()) == 576_300
    piped = _run_buffered(argv)
    assert (piped.returncode, piped.stderr, piped.stdout == expected) == (0, "", True)
    out = tmp_path / "table.txt"
    with open(out, "w") as fh:
        filed = _run_buffered(argv, stdout=fh)
    assert (filed.returncode, filed.stderr, out.read_text() == expected) == (0, "", True)


def test_help_names_the_exit_codes_and_no_internals(capsys):
    code, stdout, _ = run(capsys, "--help")
    text = " ".join(stdout.split())  # argparse wraps the description to the terminal width
    assert code == 0 and "Exit codes:" in text
    for exit_code in ("0 success", "1 counterexample", "2 usage", "70 internal error", "141 stdout closed"):
        assert exit_code in text
    for internal in ("_run", "main()", "libcrypto"):
        assert internal not in text


# A fresh interpreter runs one command through cli.main, then prints, as
# its last line, the repr of the normbch submodules, numpy, _hashlib (the
# libcrypto binding) and json that it loaded; it imports nothing itself.
# No command loads _hashlib: digests and manifest hashes use the built-in
# SHA-256.
FOOTPRINT_PROBE = (
    "import sys\n"
    "from normbch.cli import main\n"
    "main(sys.argv[1:])\n"
    "print(repr(sorted(m for m in sys.modules if m in ('numpy', '_hashlib', 'json') or m.startswith('normbch.'))))\n"
)
# Each case: argv as in EXIT_2_CASES, modules that must load, modules that must not.
FOOTPRINT_CASES = {
    "version": (["--version"], {"normbch.cli"}, {"numpy", "_hashlib", "json"}),
    "bounds": (["bounds", "--q", "7", "--d", "5"], {"normbch.bounds"}, {"numpy", "_hashlib", "json"}),
    "gencode": (["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", "{tmp}/g.txt"],
                {"normbch.construct", "numpy", "json"},
                {"normbch.verify", "normbch.bounds", "normbch.reduce", "_hashlib"}),
    "verify-distance": (["verify-distance", "--matrix", "{aug524}", "--d", "4"],
                        {"normbch.verify"}, {"normbch.bounds", "normbch.reduce", "_hashlib", "json"}),
    "verify-distance-out": (["verify-distance", "--matrix", "{aug524}", "--d", "4", "--out", "{tmp}/c.txt"],
                            {"normbch.verify", "json"}, {"normbch.bounds", "normbch.reduce", "_hashlib"}),
    "check-lines": (["check-lines", "--q", "5", "--m", "2", "--d", "4"],
                    {"normbch.verify"}, {"normbch.bounds", "normbch.reduce", "_hashlib", "json"}),
    "check-lines-out": (["check-lines", "--q", "5", "--m", "2", "--d", "4", "--out", "{tmp}/l.txt"],
                        {"normbch.verify", "json"}, {"normbch.bounds", "normbch.reduce", "_hashlib"}),
}


@pytest.mark.parametrize("argv, present, absent", FOOTPRINT_CASES.values(), ids=FOOTPRINT_CASES.keys())
def test_import_footprint(matrix_files, tmp_path, argv, present, absent):
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, *_fill(argv, matrix_files, tmp_path)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert present <= loaded
    assert not loaded & absent


# Each case: argv with relative --out paths, and the files it writes.
FRESH_PROCESS_CASES = {
    "gencode-out": (["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", "g.txt"],
                    ["g.txt", "g.txt.manifest.json"]),
    "verify-distance-json": (["verify-distance", "--matrix", "{aug524}", "--d", "4", "--json"], []),
    "check-lines-json-out": (["check-lines", "--q", "5", "--m", "2", "--d", "4", "--json", "--out", "lines.txt"],
                             ["lines.txt", "lines.txt.manifest.json"]),
    "bounds-table-json": (["bounds", "--table", "2..3", "4..5", "--json"], []),
}


@pytest.mark.parametrize("argv, written", FRESH_PROCESS_CASES.values(), ids=FRESH_PROCESS_CASES.keys())
def test_fresh_process_matches_in_process(matrix_files, tmp_path, capsys, monkeypatch, argv, written):
    """A new interpreter, which has not imported json or hashlib before the
    command asks for them, prints and writes what the in-process run does
    (elapsed_s aside)."""
    argv = _fill(argv, matrix_files, tmp_path)
    proc = subprocess.run([sys.executable, "-m", "normbch.cli", *argv], capture_output=True, text=True,
                          cwd=tmp_path, env=_child_env(), timeout=120)
    assert proc.stderr == ""
    fresh = [proc.returncode, proc.stdout] + [(tmp_path / name).read_text() for name in written]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NORMBCH_BUDGET", raising=False)
    code, stdout, stderr = run(capsys, *argv)
    assert stderr == ""
    in_process = [code, stdout] + [(tmp_path / name).read_text() for name in written]
    assert [_mask_elapsed(str(v)) for v in fresh] == [_mask_elapsed(str(v)) for v in in_process]


class TestBudgetEnvironment:
    def test_valid_value_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NORMBCH_BUDGET", "1000")
        code, stdout, stderr = run(capsys, "check-lines", "--q", "5", "--m", "2", "--d", "4")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("budget exceeded:") and "budget is 1000" in stderr

    def test_explicit_budget_overrides_malformed_value(self, capsys, monkeypatch):
        monkeypatch.setenv("NORMBCH_BUDGET", "2e7")
        code, stdout, _ = run(capsys, "check-lines", "--q", "5", "--m", "2", "--d", "4", "--budget", "5000")
        assert code == 0
        assert "words_found=300" in stdout

    def test_malformed_value_ignored_without_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("NORMBCH_BUDGET", "2e7")
        code, stdout, stderr = run(capsys, "bounds", "--q", "5", "--d", "5")
        assert code == 0
        assert stderr == ""
        assert "best_upper=7/3 [norm-bch]" in stdout


def test_manifests_pinned(tmp_path, monkeypatch):
    """Manifest fields derived from the parsed arguments, and the hashes of the files read and
    written, for all four writing subcommands."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NORMBCH_BUDGET", raising=False)
    Path("toy.cwl").write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n3 3 3 3\n")
    runs = [
        (["gencode", "--q", "5", "--m", "2", "--d", "4", "--out", "h.txt"],
         {"q": 5, "m": 2, "d": 4, "relaxed": False, "bch_only": False, "out": "h.txt"}, [], None),
        (["verify-distance", "--matrix", "h.txt", "--d", "4", "--out", "cert.txt"],
         {"matrix": "h.txt", "d": 4, "budget": 20_000_000, "threads": 1, "out": "cert.txt"},
         ["h.txt"], None),
        (["check-lines", "--q", "5", "--m", "2", "--d", "4", "--out", "lines.txt"],
         {"q": 5, "m": 2, "d": 4, "relaxed": False, "experimental": False, "budget": 20_000_000,
          "out": "lines.txt"}, [], None),
        (["reduce", "--input", "toy.cwl", "--q2", "4", "--subset", "0,1,2", "--out", "sub.cwl"],
         {"input": "toy.cwl", "q2": 4, "subset": "0,1,2", "trials": None, "seed": 0, "out": "sub.cwl"},
         ["toy.cwl"], 0),
    ]
    for argv, parameters, inputs, seed in runs:
        assert main(argv) == 0
        out = parameters["out"]
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["subcommand"] == argv[0]
        assert manifest["parameters"] == parameters
        assert manifest["inputs"] == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}
        assert manifest["outputs"] == {out: hashlib.sha256(Path(out).read_bytes()).hexdigest()}
        assert manifest["seed"] == seed
