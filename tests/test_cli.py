import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fermicode import cli
from fermicode.cli import h2_hamiltonian, hubbard_hamiltonian, main
from fermicode.errors import BudgetError
from fermicode.pauli import QubitOperator
from fermicode.transform import FermionHamiltonian, adjust_for_segments, parse_fermion_file


H2_CODE_SPEC = {
    "kind": "concat",
    "parts": [
        {
            "kind": "custom",
            "n_modes": 2,
            "n_qubits": 1,
            "encode": ["x2"],
            "decode": ["1 + x1", "x1"],
        },
        {
            "kind": "custom",
            "n_modes": 2,
            "n_qubits": 1,
            "encode": ["x2"],
            "decode": ["1 + x1", "x1"],
        },
    ],
}

H2_ARGS = [
    "--model", "h2",
    "--h11", "1.0", "--h22", "0.5", "--h1331", "0.2",
    "--h2442", "0.2", "--h1221", "0.3", "--h1212", "0.1",
]


@pytest.fixture
def h2_code_file(tmp_path):
    path = tmp_path / "h2_code.json"
    path.write_text(json.dumps(H2_CODE_SPEC))
    return str(path)


class TestModels:
    def test_hubbard_2x5_shape(self):
        h = hubbard_hamiltonian(2, 5, 1.0, 1.0, True)
        assert h.n_modes == 20
        hops = [t for t in h.terms if len(t.ops) == 2]
        quartic = [t for t in h.terms if len(t.ops) == 4]
        assert len(hops) == 60  # 15 edges x 2 directions x 2 spins
        assert len(quartic) == 10

    def test_hubbard_1x2_open(self):
        h = hubbard_hamiltonian(1, 2, 1.0, 1.0, periodic_lateral=False)
        assert h.n_modes == 4
        assert sum(1 for t in h.terms if len(t.ops) == 2) == 4  # one edge per sector

    def test_h2_term_multiset(self):
        h = h2_hamiltonian(1, 1, 1, 1, 1, 1)
        assert len(h.terms) == 14
        quartic = [t for t in h.terms if len(t.ops) == 4]
        assert len(quartic) == 10
        # the mixed-coefficient terms carry h1221 - h1212 = 0 here
        h2 = h2_hamiltonian(0, 0, 0, 0, 1.0, 1.0)
        ops = ((1, True), (2, True), (2, False), (1, False))
        assert [t.coeff for t in h2.terms if t.ops == ops] == [0.0]

    def test_h2_all_zero(self):
        h = h2_hamiltonian(0, 0, 0, 0, 0, 0)
        assert all(t.coeff == 0 for t in h.terms)


class TestGenModel:
    def test_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        assert main(["gen-model", "--model", "hubbard", "--rows", "1", "--cols", "2",
                     "--open-lateral", "--out", str(out)]) == 0
        h = parse_fermion_file(out.read_text())
        assert h.n_modes == 4 and len(h.terms) == 6


class TestTransformCommand:
    def test_h2_pipeline_stats_line(self, tmp_path, capsys, h2_code_file):
        out = tmp_path / "h2.pauli"
        rc = main(["transform", *H2_ARGS, "--code", h2_code_file, "--out", str(out)])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert line == "qubits=2 terms=5 gates=6"
        # stats line matches the written file
        op = QubitOperator.deserialize(out.read_text(), 2)
        assert op.stats() == (5, 6)

    def test_deterministic_output(self, tmp_path, h2_code_file):
        out1 = tmp_path / "a.pauli"
        out2 = tmp_path / "b.pauli"
        main(["transform", *H2_ARGS, "--code", h2_code_file, "--out", str(out1)])
        main(["transform", *H2_ARGS, "--code", h2_code_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_pauli_file_round_trip(self, tmp_path, h2_code_file):
        out = tmp_path / "h2.pauli"
        main(["transform", *H2_ARGS, "--code", h2_code_file, "--out", str(out)])
        text = out.read_text()
        op = QubitOperator.deserialize(text, 2)
        assert op.serialize() == text

    def test_transform_with_builtin_code_and_verify(self, capsys):
        rc = main([
            "transform", "--model", "hubbard", "--rows", "1", "--cols", "2",
            "--open-lateral", "--code", "jordan_wigner:4",
            "--verify", "--basis", "1-2:1;3-4:1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "qubits=4" in out and "status=pass" in out

    def test_hamiltonian_file_input(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("1 0 : +1 -1\n")
        rc = main(["transform", "--hamiltonian", str(path), "--code", "jordan_wigner:1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("qubits=1 terms=2 gates=1")

    @pytest.mark.parametrize("body, stats", [
        ("1 0 : +1 +6 -6 -1\n", "qubits=4 terms=16 gates=32"),  # not in block form
        ("1 0 : +1 +4\n1 0 : -4 -1\n", "qubits=4 terms=8 gates=24"),  # pair creation
    ])
    def test_segment_input_is_dressed_as_given(self, tmp_path, capsys, body, stats):
        path = tmp_path / "h.txt"
        path.write_text("# modes: 6\n" + body)
        rc = main(["transform", "--hamiltonian", str(path), "--code", "segment:1:2"])
        assert rc == 0
        assert capsys.readouterr().out == stats + "\n"


class TestVerifyCommand:
    def test_h2_verify_passes(self, tmp_path, capsys, h2_code_file):
        report_path = tmp_path / "report.json"
        rc = main([
            "verify", *H2_ARGS, "--code", h2_code_file,
            "--basis", "1-2:1;3-4:1", "--out", str(report_path),
        ])
        assert rc == 0
        data = json.loads(report_path.read_text())
        assert data["status"] == "pass"
        assert data["max_deviation"] < 1e-9

    def test_unadjusted_segment_fails(self, capsys):
        rc = main([
            "verify", "--model", "hubbard", "--code",
            "segment:2:2+segment:2:2", "--no-adjust",
            "--basis", "1-10:2;11-20:2",
        ])
        assert rc == 1
        assert "verification failed" in capsys.readouterr().out

    def test_adjusted_segment_passes(self, capsys):
        rc = main([
            "verify", "--model", "hubbard", "--code",
            "segment:2:2+segment:2:2", "--basis", "1-10:2;11-20:2",
        ])
        assert rc == 0
        assert "status=pass" in capsys.readouterr().out


    @pytest.mark.parametrize("basis, states", [("1-3:0,1;4-6:0,1", 16), ("1-3:1;4-6:1", 9)])
    def test_two_block_terms_keep_segment_counts(self, tmp_path, capsys, basis, states):
        # Each term moves a particle out of and into both segments, so no
        # segment's count changes and the dressing leaves both terms as given.
        path = tmp_path / "h.txt"
        path.write_text("# modes: 6\n1 0 : +4 -1 +2 -5\n1 0 : +5 -2 +1 -4\n")
        rc = main([
            "verify", "--hamiltonian", str(path), "--code", "segment:1:2", "--basis", basis,
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            f"status=pass states={states} max_deviation=0 failures=0\n"
        )

    def test_basis_states_outside_the_code_are_incompatible(self, tmp_path, capsys):
        # Two particles in a K = 1 segment do not round-trip through the code,
        # so the check is void there, not a fault of the transform.
        path = tmp_path / "h.txt"
        path.write_text("# modes: 6\n1 0 : +4 -1\n1 0 : +1 -4\n")
        rc = main([
            "verify", "--hamiltonian", str(path), "--code", "segment:1:2",
            "--basis", "1-3:2;4-6:0",
        ])
        assert rc == 1
        assert capsys.readouterr().out == (
            "status=incompatible states=3 max_deviation=0 failures=3\n"
        )

    def test_report_checks_the_input_hamiltonian(self, monkeypatch, capsys):
        # A dressing fault must reach the report: scale every dressed term
        # that spans two segments by 1.5, which keeps the Hamiltonian hermitian.
        def faulty_dressing(h, segments, weight, budget):
            dressed = adjust_for_segments(h, segments, weight, budget)
            seg_of = {m: k for k, seg in enumerate(segments) for m in seg}
            terms = tuple(
                replace(t, coeff=1.5 * t.coeff)
                if len({seg_of.get(m) for m, _ in t.ops}) > 1
                else t
                for t in dressed.terms
            )
            return FermionHamiltonian(dressed.n_modes, terms)

        monkeypatch.setattr(cli, "adjust_for_segments", faulty_dressing)
        rc = main([
            "verify", "--model", "hubbard", "--rows", "1", "--cols", "6",
            "--code", "segment:1:2+segment:1:2", "--basis", "1-6:1;7-12:1",
        ])
        assert rc == 1
        assert "status=fail" in capsys.readouterr().out


class TestValidateCommand:
    def test_checksum_validates(self, capsys):
        rc = main(["validate-code", "--code", "checksum:4:even", "--basis", "1-4:0,2,4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "round_trip=ok" in out and "one_to_one=yes" in out


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        rc = main(["transform", "--hamiltonian", "/nonexistent", "--code", "jordan_wigner:2"])
        assert rc == 2

    def test_both_sources_rejected(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("1 0 : +1 -1\n")
        rc = main(["transform", "--hamiltonian", str(path), "--model", "h2",
                   "--code", "jordan_wigner:4"])
        assert rc == 2

    def test_budget_exceeded_is_exit_3(self, capsys):
        rc = main([
            "transform", "--model", "hubbard", "--rows", "1", "--cols", "2",
            "--open-lateral", "--code", "binary_addressing_k2:2",
            "--budget", "2",
        ])
        assert rc == 3

    def test_budget_error_names_the_term(self, capsys):
        rc = main([
            "transform", "--model", "hubbard", "--rows", "1", "--cols", "2",
            "--open-lateral", "--code", "binary_addressing_k2:2", "--budget", "4",
        ])
        assert rc == 3
        assert re.search(r"^resource budget exceeded: term \d+ \(", capsys.readouterr().err)

    def test_expansion_over_budget_is_exit_3(self, capsys):
        rc = main(["transform", "--model", "hubbard", "--code", "jordan_wigner:20",
                   "--budget", "1"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: term 1 (((-1+0j)) +1 -2): "
            "expansion reached 2 terms, budget 1\n"
        )

    def test_zero_mode_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("1 0 : +0 -1\n")
        assert main(["transform", "--hamiltonian", str(path), "--code", "jordan_wigner:2"]) == 2
        assert capsys.readouterr().err == "input error: line 1: modes are 1-based\n"

    def test_merge_over_budget_is_exit_3(self, capsys):
        # Every term expands to at most 4 strings, but the merged sum of the
        # 91-string JW row passes 50 strings at term 25.
        rc = main(["transform", "--model", "hubbard", "--rows", "2", "--cols", "5",
                   "--code", "jordan_wigner:20", "--budget", "50"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: merge: term 25 (((-1+0j)) +3 -8) brings the "
            "merged operator to 52 terms, over the budget of 50\n"
        )

    def test_basis_over_budget_is_exit_3(self, capsys):
        rc = main([
            "verify", "--model", "hubbard", "--rows", "2", "--cols", "10",
            "--code", "jordan_wigner:40", "--basis", "1-40:20",
        ])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: basis 1-40:20 has 137846528820 states, "
            "over the budget of 1048576\n"
        )

    def test_bad_code_name(self, capsys):
        rc = main(["transform", "--model", "h2", "--code", "wat:4"])
        assert rc == 2

    @pytest.mark.parametrize(
        "name, message",
        [
            ("jordan_wigner:4:9", "'jordan_wigner:4:9' must have the form jordan_wigner:n_modes"),
            ("segment:2:2:7", "'segment:2:2:7' must have the form segment:weight:segments"),
            ("checksum:4:even:x",
             "'checksum:4:even:x' must have the form checksum:n_modes:flavor"),
            ("segment:2", "'segment:2' must have the form segment:weight:segments"),
            ("segment:x:2", "bad weight 'x' in builtin code 'segment:x:2'"),
            ("jordan_wigner:0", "code spec field 'n_modes' must be a positive integer, got 0"),
            ("jordan_wigner:1_0", "bad n_modes '1_0' in builtin code 'jordan_wigner:1_0'"),
            ("segment:2:\u0663", "bad segments '\u0663' in builtin code 'segment:2:\u0663'"),
            ("jordan_wigner: 3", "bad n_modes ' 3' in builtin code 'jordan_wigner: 3'"),
            ("segment:2:2+segment:1:2", "cannot concatenate segment codes of different weights"),
        ],
    )
    def test_malformed_builtin_name_names_field(self, capsys, name, message):
        assert main(["transform", *H2_ARGS, "--code", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.endswith(f"{message}\n")

    @pytest.mark.parametrize(
        "basis, message",
        [("1-1_0:2", "mode '1_0'"), ("1-10:+2", "weight '+2'"),
         ("1-\u0661\u0660:2", "mode '\u0661\u0660'")],
    )
    def test_non_digit_basis_integer_names_field(self, capsys, basis, message):
        assert main(["validate-code", "--code", "jordan_wigner:10", "--basis", basis]) == 2
        assert capsys.readouterr().err == (
            f"input error: bad basis spec {basis!r}: {message} is not a decimal number\n"
        )

    @pytest.mark.parametrize(
        "name, table",
        [("segment:20:1", "binary_switch(20) needs 2**40"),
         ("binary_addressing_k2:11", "binary_addressing_k2(11) needs 2**21")],
    )
    def test_oversized_code_table_is_exit_3(self, capsys, name, table):
        assert main(["transform", *H2_ARGS, "--code", name]) == 3
        assert capsys.readouterr().err == (
            f"resource budget exceeded: {table} truth-table entries, over the budget of 1048576\n"
        )

    @pytest.mark.parametrize(
        "name, table",
        [("binary_addressing_k2:10",
          "binary_addressing_k2(10) needs 2**19 truth-table entries of 1024 bits (536870912 bits)"),
         ("binary_addressing_k1:14",
          "binary_addressing_k1(14) needs 2**14 truth-table entries of 16384 bits "
          "(268435456 bits)")],
    )
    def test_wide_code_table_is_exit_3(self, capsys, name, table):
        assert main(["transform", *H2_ARGS, "--code", name]) == 3
        assert capsys.readouterr().err == (
            f"resource budget exceeded: {table}, over the budget of 67108864 bits\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["gen-model", *H2_ARGS],
         ["transform", *H2_ARGS, "--code", "jordan_wigner:4"],
         ["verify", *H2_ARGS, "--code", "jordan_wigner:4", "--basis", "1-2:1;3-4:1"]],
    )
    def test_unwritable_out_is_exit_2(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and repr(str(tmp_path)) in err

    @pytest.mark.parametrize("command", [["transform", "--verify"], ["verify"]])
    def test_verification_without_basis_is_exit_2_before_any_output(
        self, tmp_path, capsys, command
    ):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([*command, *H2_ARGS, "--code", "jordan_wigner:4", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "verification needs --basis" in captured.err

    @pytest.mark.parametrize(
        "name, constructor",
        [("jordan_wigner:1025", "jordan_wigner"), ("parity:1025", "parity_code"),
         ("bravyi_kitaev:1025", "bravyi_kitaev")],
    )
    def test_oversized_linear_code_is_exit_3(self, capsys, name, constructor):
        assert main(["transform", *H2_ARGS, "--code", name]) == 3
        assert capsys.readouterr().err == (
            f"resource budget exceeded: {constructor}(1025) needs 1025**2 matrix entries, "
            "over the budget of 1048576\n"
        )

    def test_oversized_checksum_code_is_exit_3(self, capsys):
        assert main(["validate-code", "--code", "checksum:2000:even", "--basis", "1-2000:2"]) == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: checksum_code(2000) needs 2000 x 1999 code entries, "
            "over the budget of 1048576\n"
        )

    def test_dressing_over_budget_is_exit_3(self, capsys):
        rc = main(["transform", "--model", "hubbard", "--rows", "1", "--cols", "10",
                   "--code", "segment:2:4", "--budget", "500"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: segment dressing: term 21 (((-1+0j)) +5 -6) "
            "brings the dressed terms to 621, over the budget of 500\n"
        )

    @pytest.mark.parametrize(
        "spec, field",
        [
            ([{"kind": "jordan_wigner", "n_modes": 4}], "JSON object"),
            ({"kind": "jordan_wigner", "n_modes": "4"}, "'n_modes'"),
            (
                {"kind": "custom", "n_modes": 1, "n_qubits": 1,
                 "encode": ["x1"], "decode": ["x9"]},
                "'decode'",
            ),
            ({"kind": "concat", "parts": 5}, "'parts'"),
            ({**H2_CODE_SPEC["parts"][0], "degenerate_image": [0]}, "'degenerate_image'"),
        ],
    )
    def test_malformed_code_spec_names_field(self, tmp_path, capsys, spec, field):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        rc = main(["transform", *H2_ARGS, "--code", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and field in err

    @pytest.mark.parametrize(
        "spec, key, allowed",
        [
            ({"kind": "segment", "weight": 2, "segments": 2, "segmnets": 3},
             "'segmnets'", "kind, weight, segments"),
            ({"kind": "jordan_wigner", "n_modes": 4, "flavor": "even"},
             "'flavor'", "kind, n_modes"),
            ({**H2_CODE_SPEC, "extra": 1}, "'extra'", "kind, parts"),
            ({**H2_CODE_SPEC["parts"][0], "encode_afine": [0]}, "'encode_afine'",
             "kind, n_modes, n_qubits, encode, decode, encode_affine, decode_affine, "
             "degenerate_image"),
        ],
    )
    def test_unknown_code_spec_field_is_refused(self, tmp_path, capsys, spec, key, allowed):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        assert main(["transform", *H2_ARGS, "--code", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"input error: code spec of kind {spec['kind']!r} has unknown field {key}; "
            f"allowed fields: {allowed}\n"
        )

    def test_mode_header_sets_mode_count(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("# modes: 4\n1 0 : +1 -1\n")
        assert main(["transform", "--hamiltonian", str(path), "--code", "jordan_wigner:4"]) == 0
        assert main(["transform", "--hamiltonian", str(path), "--code", "jordan_wigner:1"]) == 2

    @pytest.mark.parametrize("command", ["transform", "verify"])
    @pytest.mark.parametrize("adjust", [[], ["--no-adjust"]])
    def test_mode_count_mismatch_is_named_with_or_without_dressing(
        self, tmp_path, capsys, command, adjust
    ):
        # An 18-mode file and a 20-mode segment code: the counts are named,
        # not a mode of the code's segments that the file never uses.
        path = tmp_path / "h.txt"
        path.write_text("# modes: 18\n-1 0 : +15 -16\n-1 0 : +16 -15\n")
        argv = [command, "--hamiltonian", str(path), "--code", "segment:2:4", *adjust]
        assert main(argv + (["--basis", "1-18:2"] if command == "verify" else [])) == 2
        assert capsys.readouterr().err == "input error: Hamiltonian has 18 modes, code encodes 20\n"

    def test_mode_over_the_header_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("# modes: 3\n1 0 : +1 -1\n1 0 : +5 -2\n")
        assert main(["transform", "--hamiltonian", str(path), "--code", "jordan_wigner:3"]) == 2
        err = capsys.readouterr().err
        assert err == "input error: line 3: mode 5 exceeds declared mode count 3\n"

    def test_epsilon_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", *H2_ARGS, "--code", "jordan_wigner:4", "--epsilon", "1e-9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--t", "nan"), ("--u", "inf"), ("--h11", "-inf"), ("--tol", "nan"),
         ("--rows", "-1"), ("--rows", "0"), ("--cols", "0"), ("--budget", "0"),
         ("--budget", "-1")],
    )
    def test_non_finite_float_flag_rejected(self, capsys, flag, value):
        argv = ["transform", "--model", "hubbard", "--rows", "1", "--cols", "2",
                "--open-lateral", "--code", "jordan_wigner:4", "--verify",
                "--basis", "1-4:2", f"{flag}={value}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        positive = flag in ("--rows", "--cols", "--budget")
        reason = "must be positive" if positive else "non-finite value"
        assert f"argument {flag}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["gen-model", "--model", "hubbard", "--rows", "1"], "--cols", "\u0663"),
            (["validate-code", "--code", "checksum:4:even", "--basis", "1-4:0,2"],
             "--budget", "1_0"),
            (["validate-code", "--code", "checksum:4:even", "--basis", "1-4:0,2"],
             "--seed", "1_0"),
        ],
    )
    def test_integer_flag_takes_ascii_digits_only(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err

    def test_zero_sample_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate-code", "--code", "checksum:4:even", "--basis", "1-4:0,2,4",
                  "--sample", "0"])
        assert exc.value.code == 2
        assert "argument --sample: must be positive, got '0'" in capsys.readouterr().err

    def test_non_finite_coefficient_in_file(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("nan 0 : +1 -1\n")
        assert main(["transform", "--hamiltonian", str(path), "--code", "jordan_wigner:1"]) == 2
        assert "line 1: non-finite coefficient" in capsys.readouterr().err


class TestNumberFields:
    @pytest.mark.parametrize("line", ["1_0 0 : +1 -1", "\u0663 0 : +2 -2"])
    def test_hamiltonian_coefficient_is_ascii_real(self, tmp_path, capsys, line):
        path = tmp_path / "h.txt"
        path.write_text(f"# modes: 2\n{line}\n")
        assert main(["transform", "--hamiltonian", str(path), "--code", "jordan_wigner:2"]) == 2
        assert "input error: line 2: bad coefficient: could not convert" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["gen-model", "--model", "hubbard", "--rows", "1", "--cols", "2"], "--t", "1_0"),
            (["transform", "--model", "hubbard", "--rows", "1", "--cols", "2",
              "--code", "jordan_wigner:4"], "--t", "\u0663"),
            (["gen-model", "--model", "hubbard"], "--u", "\uff11"),
            (["gen-model", "--model", "h2"], "--h1221", "2_5"),
            (["verify", "--model", "h2", "--code", "jordan_wigner:4", "--basis", "1-4:2"],
             "--tol", "1_0"),
        ],
    )
    def test_float_flag_is_ascii_real(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid float value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, coeff", [("1e-3", "-0.001"), ("-2.5E+1", "25"),
                                              (".5", "-0.5"), ("+1", "-1")])
    def test_float_flag_takes_float_syntax(self, capsys, value, coeff):
        assert main(["gen-model", "--model", "hubbard", "--rows", "1", "--cols", "2",
                     f"--t={value}"]) == 0
        assert f"{coeff} 0 : +1 -2\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "model, flag",
        [("hubbard", "--t"), ("hubbard", "--u"), ("h2", "--h11"), ("h2", "--h1212")],
    )
    def test_negative_exponent_float_needs_no_equals(self, capsys, model, flag):
        argv = ["gen-model", "--model", model, "--rows", "1", "--cols", "2"]
        assert main([*argv, flag, "-2.5E+1"]) == 0
        spaced = capsys.readouterr().out
        assert main([*argv, f"{flag}=-2.5E+1"]) == 0
        assert spaced == capsys.readouterr().out and "25 0 : " in spaced

    def test_negative_tolerance_is_refused_by_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", "h2", "--code", "jordan_wigner:4", "--basis", "1-4:2",
                  "--tol", "-1e-3"])
        assert exc.value.code == 2
        assert "argument --tol: must be non-negative, got '-1e-3'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, entries, at",
        [
            ("encode", ["x1", "x\u0662"], "entry 1: variable '\u0662'"),
            ("encode", ["x1_0", "x2"], "entry 0: variable '1_0'"),
            ("decode", ["x1", "x 2"], "entry 1: variable ' 2'"),
        ],
    )
    def test_spec_variable_is_ascii_decimal(self, tmp_path, capsys, key, entries, at):
        spec = {"kind": "custom", "n_modes": 10, "n_qubits": 10,
                "encode": [f"x{j}" for j in range(1, 11)],
                "decode": [f"x{j}" for j in range(1, 11)]}
        spec[key] = entries + spec[key][len(entries):]
        path = tmp_path / "code.json"
        path.write_text(json.dumps(spec))
        assert main(["validate-code", "--code", str(path), "--basis", "1-10:1"]) == 2
        err = capsys.readouterr().err
        assert f"code spec field {key!r} {at} is not a decimal number" in err


def test_every_budget_parameter_defaults_to_the_default_budget():
    from fermicode import bitmath, codes, pauli, transform

    functions = [
        bitmath.BoolPoly.mul, bitmath.BoolPoly.compose, hubbard_hamiltonian, cli._load_hamiltonian,
        codes.enumerate_basis, codes.decode_image, codes.validate_code,
        pauli.QubitOperator.mul, pauli._expand, pauli.expand, pauli.extract, pauli.flip_operator,
        transform.update_operator, transform.transform_term, transform.transform_hamiltonian,
        transform.transform_single_two_codes, transform.adjust_for_segments,
    ]
    for fn in functions:
        assert inspect.signature(fn).parameters["budget"].default == bitmath.DEFAULT_BUDGET, fn


@pytest.mark.parametrize("command", ["transform", "verify"])
def test_run_budget_flag_defaults_to_the_default_budget(monkeypatch, capsys, command):
    seen = []
    real = cli.transform_hamiltonian

    def spy(code, h, budget):
        seen.append(budget)
        return real(code, h, budget=budget)

    monkeypatch.setattr(cli, "transform_hamiltonian", spy)
    assert main([command, *H2_ARGS, "--code", "jordan_wigner:4", "--basis", "1-4:2"]) == 0
    assert seen == [cli.DEFAULT_BUDGET]


SEGMENT_ROW = ["--model", "hubbard", "--code", "segment:2:2+segment:2:2"]
HALVES = ["--basis", "1-10:2;11-20:2"]


@pytest.fixture
def no_transform(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("transform_hamiltonian ran before every input was checked")

    monkeypatch.setattr(cli, "transform_hamiltonian", refuse)


class TestInputsBeforeTransform:
    @pytest.mark.parametrize("command", [["transform", "--verify"], ["verify"]])
    def test_malformed_basis_is_exit_2(self, capsys, no_transform, command):
        assert main([*command, *SEGMENT_ROW, "--basis", "1-10:x"]) == 2
        assert capsys.readouterr().err == (
            "input error: bad basis spec '1-10:x': weight 'x' is not a decimal number\n"
        )

    @pytest.mark.parametrize("command", [["transform", "--verify"], ["verify"]])
    def test_basis_over_budget_is_exit_3(self, capsys, no_transform, command):
        argv = [*command, *SEGMENT_ROW, "--basis", "1-20:10", "--budget", "100000"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "resource budget exceeded: basis 1-20:10 has 184756 states, "
            "over the budget of 100000\n"
        )

    @pytest.mark.parametrize("command", [["transform"], ["transform", "--verify"], ["verify"]])
    def test_out_directory_is_exit_2(self, tmp_path, capsys, no_transform, command):
        assert main([*command, *SEGMENT_ROW, *HALVES, "--out", str(tmp_path)]) == 2
        assert repr(str(tmp_path)) in capsys.readouterr().err

    def test_transform_ignores_basis_without_verify(self, capsys):
        argv = ["transform", *H2_ARGS, "--code", "jordan_wigner:4", "--basis", "1-4:x"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "qubits=4 terms=15 gates=32\n"


class TestOutFile:
    @pytest.mark.parametrize(
        "argv, rc",
        [(["transform", "--model", "hubbard", "--code", "jordan_wigner:20",
           "--budget", "50"], 3),
         (["verify", *SEGMENT_ROW, "--no-adjust", *HALVES], 1)],
    )
    def test_failed_run_keeps_existing_file(self, tmp_path, capsys, argv, rc):
        out = tmp_path / "out.txt"
        out.write_text("keep me\n")
        assert main([*argv, "--out", str(out)]) == rc
        assert out.read_text() == "keep me\n"

    @pytest.mark.parametrize(
        "argv",
        [["transform", *H2_ARGS, "--code", "jordan_wigner:4"],
         ["verify", *H2_ARGS, "--code", "jordan_wigner:4", "--basis", "1-2:1;3-4:1"]],
    )
    def test_shorter_output_replaces_whole_file(self, tmp_path, capsys, argv):
        fresh, stale = tmp_path / "fresh.txt", tmp_path / "stale.txt"
        stale.write_text("x" * 100_000)
        assert main([*argv, "--out", str(fresh)]) == 0
        assert main([*argv, "--out", str(stale)]) == 0
        assert 0 < len(fresh.read_bytes()) < 100_000
        assert stale.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["transform", *H2_ARGS, "--code", "jordan_wigner:4"],
         ["verify", *H2_ARGS, "--code", "jordan_wigner:4", "--basis", "1-2:1;3-4:1"]],
    )
    def test_devnull_takes_the_output(self, capsys, argv):
        assert main([*argv, "--out", os.devnull]) == 0

    @pytest.mark.parametrize("command", [["transform"], ["transform", "--verify", *HALVES]])
    def test_unadjusted_segment_transform_is_exit_1(self, capsys, command):
        assert main([*command, *SEGMENT_ROW, "--no-adjust"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: transformed Hamiltonian is not hermitian")


class TestTolerance:
    TOL_RUN = ["verify", "--model", "h2", "--h11", "1", "--code", "jordan_wigner:4",
               "--basis", "1-2:1;3-4:1"]

    @pytest.mark.parametrize("value", ["-1", "-1e-12"])
    def test_negative_tolerance_is_exit_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main([*self.TOL_RUN, f"--tol={value}"])
        assert exc.value.code == 2
        assert f"argument --tol: must be non-negative, got {value!r}" in capsys.readouterr().err

    def test_zero_tolerance_passes(self, capsys):
        assert main([*self.TOL_RUN, "--tol", "0"]) == 0
        assert capsys.readouterr().out.startswith("status=pass states=4 max_deviation=0")


class TestModelSize:
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 5), (3, 4)])
    def test_term_count_is_exact(self, rows, cols, periodic):
        count = len(hubbard_hamiltonian(rows, cols, periodic_lateral=periodic).terms)
        hubbard_hamiltonian(rows, cols, periodic_lateral=periodic, budget=count)
        with pytest.raises(BudgetError, match=f"has {count} terms, over the budget of"):
            hubbard_hamiltonian(rows, cols, periodic_lateral=periodic, budget=count - 1)

    def test_library_budget_names_size_and_count(self):
        with pytest.raises(BudgetError) as exc:
            hubbard_hamiltonian(20, 20, 1.0, 1.0, budget=1000)
        assert str(exc.value) == "hubbard model 20x20 has 3520 terms, over the budget of 1000"

    @pytest.mark.parametrize(
        "argv, budget",
        [(["gen-model"], 1048576),
         (["transform", "--code", "jordan_wigner:4"], 1048576),
         (["verify", "--code", "jordan_wigner:4", "--basis", "1-4:1"], 1048576),
         (["transform", "--code", "jordan_wigner:4", "--budget", "1438399"], 1438399)],
    )
    def test_oversized_model_is_exit_3_before_any_term(self, monkeypatch, capsys, argv, budget):
        class NoTerms:
            @staticmethod
            def of(*args):
                pytest.fail("a term was built for an over-budget model")

        monkeypatch.setattr(cli, "FermionTerm", NoTerms)
        assert main([*argv, "--model", "hubbard", "--rows", "400", "--cols", "400"]) == 3
        assert capsys.readouterr().err == (
            "resource budget exceeded: hubbard model 400x400 has 1438400 terms, "
            f"over the budget of {budget}\n"
        )


class TestModuleEntry:
    @staticmethod
    def run_module(*argv):
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", "fermicode.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_transform_prints_stats(self):
        done = self.run_module("transform", "--model", "h2", "--h11", "1",
                               "--code", "jordan_wigner:4")
        assert (done.returncode, done.stdout, done.stderr) == (0, "qubits=4 terms=3 gates=2\n", "")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_to_a_pipe_comes_before_the_stats_line(self):
        done = self.run_module("transform", "--model", "h2", "--h11", "1",
                               "--code", "jordan_wigner:4", "--out", "/dev/stdout")
        assert done.returncode == 0
        assert done.stdout == "-1 0 I\n0.5 0 Z1\n0.5 0 Z3\nqubits=4 terms=3 gates=2\n"

    def test_verify_without_basis_is_exit_2(self):
        done = self.run_module("verify", "--model", "h2", "--code", "jordan_wigner:4")
        assert done.returncode == 2
        assert "verification needs --basis" in done.stderr
