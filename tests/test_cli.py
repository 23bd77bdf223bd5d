"""Command-line contract: JSON shape, determinism, exit codes, formats."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import pytest

from ternpow import acceptance, hausdorff_dimension, scan_problems
from ternpow.cli import _INLINE_INT_LIMIT, _parse_args, _serialize, dispatch, main
from ternpow.errors import PrecisionError
from ternpow.orbit.cf import MAX_CF_DEPTH
from ternpow.orbit.gaps import MAX_BRUTE_N, MAX_GAP_N
from ternpow.orbit.leading import MAX_CENSUS_X
from ternpow.sieve import MAX_SIEVE_X


def _run(argv):
    text, code = dispatch(argv)
    assert code == 0
    return json.loads(text)


def test_report_envelope_shape():
    payload = _run(["cf", "--depth", "6"])
    assert set(payload.keys()) == {"command", "config", "notes", "results", "timing"}
    assert payload["command"] == "cf"
    assert payload["timing"] is None
    assert payload["config"] == {"precision_cap": 65536, "state_limit": 1_000_000}
    assert payload["results"]["partial_quotients"] == [0, 1, 1, 1, 2, 2, 3]


def test_output_is_byte_identical_across_runs():
    for argv in (
        ["dimension", "--multipliers", "1,7"],
        ["sieve", "--max-exponent", "200"],
        ["three-gap", "--N", "50"],
        ["construct", "--levels", "1", "--digit-policy", "random:9"],
    ):
        a, code_a = dispatch(argv)
        b, code_b = dispatch(argv)
        assert (a, code_a) == (b, code_b)
        assert code_a == 0


def test_scan_results_independent_of_threads():
    # --threads is parsed and ignored: stdout depends on argv alone
    for argv in (["scan", "--max-M", "30"], ["cf", "--depth", "6"]):
        plain = dispatch(argv)
        assert plain[1] == 0
        for threads in ("1", "2"):
            assert dispatch(["--threads", threads, *argv]) == plain, threads


def test_json_keys_are_sorted():
    text, _ = dispatch(["dimension", "--multipliers", "1,7"])
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True)


def test_big_integers_become_decimal_strings():
    payload = _run(["construct", "--levels", "1"])
    assert payload["results"]["M"] == "73846560566123567532"
    assert payload["results"]["lam"]["numerator"] == "18461640141530891883"
    assert payload["results"]["lam"]["exponent"] == 63  # small ints stay ints


def test_fractions_become_ratio_strings():
    payload = _run(["dimension", "--multipliers", "1,2"])
    assert payload["results"]["rho_lo"] == "1/1"
    assert payload["results"]["exact"] is True


def test_dimension_command_values():
    payload = _run(["dimension", "--multipliers", "1,7", "--exact-charpoly"])
    res = payload["results"]
    assert abs(res["value"] - 0.4380178794859424) < 1e-12
    assert res["states_trimmed"] == 4
    assert res["charpoly"] == "x**4 - 2*x**3 + x**2 - 1"
    assert len(res["prefix_counts"]) == 60


def test_sieve_csv_format():
    text, code = dispatch(["sieve", "--max-exponent", "300", "--format", "csv"])
    assert code == 0
    assert text.splitlines() == ["n", "0", "2", "8"]


def test_sieve_with_lambda():
    payload = _run(["sieve", "--max-exponent", "100", "--lambda", "3/2^2"])
    assert payload["results"]["count"] == len(payload["results"]["survivors"])
    assert payload["results"]["narkiewicz_ok"] is True


def test_scan_csv_format():
    text, code = dispatch(["scan", "--max-M", "8", "--out", "csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "M,normalized_M,in_MC,in_MH,witness"
    assert lines[1] == "1,1,1,1,1"
    assert len(lines) == 9


def test_search_n_digits_render_most_significant_first():
    payload = _run(["search-n", "--multipliers", "7"])
    assert payload["results"]["n"] == 4
    assert payload["results"]["digits"] == "11"
    # a miss is a proof: no search ceiling or exhaustion flag is printed
    miss = _run(["search-n", "--multipliers", "1,52"])
    assert miss["results"]["found"] is False
    assert set(miss["results"]) == {
        "bound", "bound_denominator", "digits", "found", "multipliers", "n"
    }


def test_three_gap_offset_invariance_in_output():
    base = _run(["three-gap", "--N", "100"])
    shifted = _run(["three-gap", "--N", "100", "--offset", "3/10"])
    assert base["results"]["arcs"] == shifted["results"]["arcs"]
    assert base["results"]["ladder"] == {"j": 0, "k": 16, "n": 6}


def test_three_gap_brute_check_flag():
    payload = _run(["three-gap", "--N", "60", "--brute-check"])
    assert payload["results"]["brute_match"] is True


def test_search_and_brute_bounds_are_inclusive():
    # parsing alone: a run at each bound takes seconds
    assert _parse_args(["three-gap", "--N", str(MAX_BRUTE_N), "--brute-check"]).N == MAX_BRUTE_N
    assert _parse_args(["sieve", "--max-exponent", str(MAX_SIEVE_X)]).max_exponent == MAX_SIEVE_X
    assert _parse_args(["census", "--lambda", "1", "--max", str(MAX_CENSUS_X)]).max_x == MAX_CENSUS_X
    # the formula alone takes N far past the brute-force bound
    big = _run(["three-gap", "--N", str(10**15)])
    assert big["results"]["N"] == 10**15


def test_census_command():
    payload = _run(["census", "--lambda", "1", "--max", "1000"])
    assert payload["results"]["census"] == 98
    assert payload["results"]["exact_count"] == 2


def test_export_automaton_is_raw():
    dot, code = dispatch(["export-automaton", "--multipliers", "1,7"])
    assert code == 0
    assert dot.startswith("digraph")
    as_json, _ = dispatch(
        ["export-automaton", "--multipliers", "1,7", "--format", "json", "--trim"]
    )
    payload = json.loads(as_json)
    assert payload["trimmed"] is True
    assert "command" not in payload


def test_verify_subset_of_criteria(capsys):
    code = main(["verify", "--only", "3,5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "criterion  3" in out and "criterion  5" in out
    assert "all 2 criteria passed" in out


def test_verify_reports_failures(monkeypatch, capsys):
    fake = acceptance.CriterionResult(2, "count-bounds", False, "forced", 0.0)
    monkeypatch.setattr(acceptance, "run_all", lambda numbers=None: [fake])
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out and "FAILED criteria: [2]" in out


@pytest.mark.parametrize("offset", ["1/0", "abc", "1/x"])
def test_three_gap_bad_offset_is_usage_error(offset):
    proc = subprocess.run(
        [sys.executable, "-m", "ternpow.cli", "three-gap", "--N", "10", "--offset", offset],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "--offset" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("only", ["99", "0", ",", "", "2,99", "x"])
def test_verify_empty_or_unknown_selection_is_usage_error(only, capsys):
    assert main(["verify", "--only", only]) == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert captured.out == ""


def test_footer_names_the_subcommand(capsys):
    argv = ["--precision-cap", "256", "cf", "--depth", "3"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == dispatch(argv)[0] + "\n"
    assert captured.err.startswith("# cf finished in ")
    assert "--precision-cap" not in captured.err


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["sieve"]) == 1  # missing required --max-exponent
    assert main(["no-such-command"]) == 1


def test_computation_errors_exit_two(capsys):
    # the 256-bit cap certifies the continued fraction only to depth 78
    assert main(["--precision-cap", "256", "cf", "--depth", "79"]) == 2
    assert "ternpow: PrecisionError" in capsys.readouterr().err
    # the {1, 7} machine of the scan needs 4 states
    assert main(["--state-limit", "3", "scan", "--max-M", "10"]) == 2
    assert "ternpow: SizeGuardError" in capsys.readouterr().err
    # the witness search builds the same machine under the same guard
    assert main(["--state-limit", "3", "search-n", "--multipliers", "1,7"]) == 2
    assert "ternpow: SizeGuardError" in capsys.readouterr().err
    # the integer charpoly keeps a 256-state guard and its message
    assert main(["dimension", "--multipliers", "1,14581", "--exact-charpoly"]) == 2
    assert capsys.readouterr().err == (
        "ternpow: SizeGuardError: charpoly limited to 256 states, machine has 442\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--max-exponent", "10", "--lambda", "1/3"],
        ["sieve", "--max-exponent", "10", "--lambda", "0"],
        ["sieve", "--max-exponent", "10", "--lambda", "nonsense"],
        ["sieve", "--max-exponent", "0"],
        ["census", "--lambda", "1", "--max", "1"],
        ["census", "--lambda", "-1", "--max", "10"],
        ["three-gap", "--N", "0"],
        ["three-gap", "--N", "10", "--prec", "8"],
        ["three-gap", "--N", "10", "--prec", "0"],
        ["three-gap", "--N", "10", "--prec", "-100"],
        ["three-gap", "--N", "10", "--prec", "65537"],
        ["--precision-cap", "512", "three-gap", "--N", "10", "--prec", "513"],
        ["cf", "--depth", "0"],
        ["dimension", "--multipliers", "a"],
        ["dimension", "--multipliers", "1,7", "--prefix-depth", "0"],
        ["dimension", "--multipliers", "1,7", "--prefix-depth", "-3"],
        ["dimension", "--multipliers", "1", "--prefix-depth", "10001"],
        ["dimension", "--multipliers", "1", "--prefix-depth", "14300"],
        ["export-automaton", "--multipliers", "1,-2"],
        ["search-n", "--multipliers", "7", "--max-N", "100"],
        ["search-n", "--multipliers", "7", "--exact"],
        ["search-n"],
        ["three-gap", "--N", "100001", "--brute-check"],
        ["three-gap", "--brute-check", "--N", "1000000000000"],
        ["scan", "--max-M", "0"],
        ["scan", "--max-M", "3001"],
        ["--threads", "0", "cf", "--depth", "3"],
        ["--state-limit", "0", "cf", "--depth", "3"],
        ["--precision-cap", "64", "cf", "--depth", "3"],
        ["construct", "--levels", "1", "--digit-policy", "smallest"],
        ["construct", "--levels", "1", "--digit-policy", "random:abc"],
        ["construct", "--levels", "1", "--digit-policy", "random:"],
        ["sieve", "--max-exponent", "100000000001"],
        ["sieve", "--lambda", "3", "--max-exponent", "1" + "0" * 19],
        ["census", "--lambda", "1", "--max", "10000001"],
        ["census", "--lambda", "1", "--max", "1" + "0" * 19],
        ["construct", "--levels", "1", "--digit-policy", "random"],
        ["--seed", "9", "construct", "--levels", "1"],
        ["three-gap", "--N", str(MAX_GAP_N + 1)],
    ],
)
def test_invalid_input_is_usage_error(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_sieve_residue_depth_is_not_an_option(capsys):
    assert main(["sieve", "--max-exponent", "10", "--residue-depth", "5"]) == 1
    assert "unrecognized arguments: --residue-depth" in capsys.readouterr().err


def test_three_gap_precision_is_not_an_option(capsys):
    # escalation sets the precision of the enclosures
    assert main(["three-gap", "--N", "10", "--prec", "512"]) == 1
    assert "unrecognized arguments: --prec" in capsys.readouterr().err


def test_three_gap_at_its_bound_prints_every_enclosure():
    # 8192 bits certify the arcs up to about N = 10^1233; their denominators
    # have 2467 digits, inside the int-to-str limit that 16384 bits would pass
    text, code = dispatch(["three-gap", "--N", str(MAX_GAP_N)])
    assert code == 0
    res = _strict_json(text)["results"]
    assert res["prec"] == 8192
    assert len(res["arcs"]) == 3
    for arc in res["labeled"]:
        lo, hi = Fraction(arc["lo"]), Fraction(arc["hi"])
        assert 0 < lo < hi and 2**8192 % lo.denominator == 2**8192 % hi.denominator == 0


def test_cf_depth_at_its_bound_prints_every_convergent(capsys):
    # q_8000 has 4122 decimal digits; from depth 8356 on, printing would pass
    # the 4300-digit limit of int-to-str conversion
    text, code = dispatch(["cf", "--depth", str(MAX_CF_DEPTH)])
    assert code == 0
    res = _strict_json(text)["results"]
    assert len(res["convergents"]) == MAX_CF_DEPTH + 1
    assert len(res["convergents"][-1][1]) == 4122
    assert main(["cf", "--depth", str(MAX_CF_DEPTH + 1)]) == 1
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "--depth" in captured.err
    assert captured.out == ""


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_dimension_output_is_strict_json():
    for depth in ("1", "2", "60"):
        text, code = dispatch(["dimension", "--multipliers", "1,7", "--prefix-depth", depth])
        assert code == 0
        res = _strict_json(text)["results"]
        assert len(res["prefix_counts"]) == int(depth)


def test_prefix_depth_at_its_bound_prints_every_count():
    # the deepest table prints 2^10000 (3011 digits) for the full machine
    text, code = dispatch(["dimension", "--multipliers", "1", "--prefix-depth", "10000"])
    assert code == 0
    counts = _strict_json(text)["results"]["prefix_counts"]
    assert len(counts) == 10000
    assert counts[-1] == str(2**10000)


@pytest.mark.parametrize("offset", ["-1/3", "-0.25", "-2"])
def test_negative_offset_parses_in_both_forms(offset):
    spaced, code = dispatch(["three-gap", "--N", "10", "--offset", offset])
    assert code == 0
    joined, _ = dispatch(["three-gap", "--N", "10", f"--offset={offset}"])
    assert spaced == joined
    assert _strict_json(spaced)["results"]["offset"] == str(Fraction(offset))


def test_back_to_back_dispatch_matches_fresh_processes():
    # one parser serves every call, so nothing parsed for one command (its
    # subcommand, options or defaults) may leak into the next
    argvs = [
        ["--precision-cap", "512", "construct", "--levels", "1", "--digit-policy", "random:9"],
        ["construct", "--levels", "1", "--digit-policy", "random:0"],
        ["three-gap", "--N", "40", "--offset", "-1/3"],
        ["three-gap", "--N", "40"],
        ["--threads", "1", "sieve", "--max-exponent", "60", "--format", "csv"],
        ["sieve", "--max-exponent", "60"],
        ["dimension", "--multipliers", "1,7", "--prefix-depth", "3"],
        ["dimension", "--multipliers", "1,7"],
    ]
    in_process = [dispatch(argv) for argv in argvs]
    for argv, (text, code) in zip(argvs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "ternpow.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.stdout, proc.returncode) == (text + "\n", code), argv


def test_timing_goes_to_stderr_not_payload(capsys):
    code = main(["cf", "--depth", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "finished in" in captured.err
    assert "finished in" not in captured.out
    assert json.loads(captured.out)["timing"] is None


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ternpow.cli", "cf", "--depth", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["command"] == "cf"


def _cli_subprocess(argv, **env):
    return subprocess.run(
        [sys.executable, "-m", "ternpow.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **env},
    )


# TERNARY_PRECISION_CAP once defaulted --precision-cap; these two tests keep
# their names and assert that stdout now depends on argv alone: a bad cap is a
# usage error only as the flag, and the variable changes nothing.
@pytest.mark.parametrize("cap", ["abc", "100"])
@pytest.mark.parametrize("argv", [["cf", "--depth", "3"], ["scan", "--max-M", "5"]])
def test_bad_cap_variable_is_usage_error(cap, argv):
    proc = _cli_subprocess(["--precision-cap", cap, *argv])
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "--precision-cap" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    plain = _cli_subprocess(argv)
    assert plain.returncode == 0
    proc = _cli_subprocess(argv, TERNARY_PRECISION_CAP=cap)
    assert (proc.stdout, proc.returncode) == (plain.stdout, 0)


def test_cap_variable_is_the_flag_default():
    # the flag's default is 65536 whatever the variable holds, low or empty
    # (a cap of 256 bits certifies the continued fraction only to depth 78),
    # and the flag alone sets the cap
    argv = ["cf", "--depth", "79"]
    plain = _cli_subprocess(argv)
    assert plain.returncode == 0
    assert json.loads(plain.stdout)["config"]["precision_cap"] == 65536
    for cap in ("256", ""):
        proc = _cli_subprocess(argv, TERNARY_PRECISION_CAP=cap)
        assert (proc.stdout, proc.returncode) == (plain.stdout, 0), cap
    flagged = ["--precision-cap", "512", *argv]
    proc = _cli_subprocess(flagged, TERNARY_PRECISION_CAP="256")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["precision_cap"] == 512
    proc = _cli_subprocess(["--precision-cap", "256", *argv], TERNARY_PRECISION_CAP="512")
    assert proc.returncode == 2
    assert "PrecisionError" in proc.stderr


def test_dispatch_leaves_the_environment_alone():
    before = dict(os.environ)
    dispatch(["--precision-cap", "512", "cf", "--depth", "3"])
    with pytest.raises(PrecisionError):
        dispatch(["--precision-cap", "256", "cf", "--depth", "79"])
    assert dict(os.environ) == before


def test_failed_cap_does_not_reach_the_next_command():
    with pytest.raises(PrecisionError):
        dispatch(["--precision-cap", "256", "cf", "--depth", "79"])
    payload = _run(["cf", "--depth", "79"])
    assert len(payload["results"]["partial_quotients"]) == 80
    assert payload["config"]["precision_cap"] == 65536


def _asdict_serialize(value):
    """The earlier serializer, which walked an ``asdict`` copy; oracle for
    the direct field walk."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if abs(value) < _INLINE_INT_LIMIT else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if is_dataclass(value):
        return {k: _asdict_serialize(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _asdict_serialize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_asdict_serialize(v) for v in seq]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def test_serialize_matches_asdict_walk():
    for value in (scan_problems(300), hausdorff_dimension([1, 7])):
        got = json.dumps(_serialize(value), sort_keys=True)
        assert got == json.dumps(_asdict_serialize(value), sort_keys=True)


# stdout sha256 of each command at its defaults
PINNED_STDOUT = {
    ("sieve", "--max-exponent", "200000"):
        "5d69d5ecf33dffeb52fa05a8ba1f5de3601df4d1e372c62ffe5228463df14315",
    ("sieve", "--lambda", "45/2^3", "--max-exponent", "100000"):
        "4570e4415dd28233b2f11052a91d07a005eb7a3f63465011194b95efe73e6511",
    ("census", "--lambda", "1", "--max", "20000"):
        "ca23290b6ed2188a2b22764673b1c301c1cbc5d9969de9b6e33fee66e7ae8a0e",
    ("census", "--lambda", "1999/2^5", "--max", "100000"):
        "3ca24da893b1260cd6a21aed4ee5a69e565a12c26769275b6642935e22761689",
    ("cf", "--depth", "400"):
        "cd388ecefc58f892c821fa0b49a1d5cb6d71ab53e83632632672e074fb239d2e",
    ("construct", "--levels", "2", "--digit-policy", "random:5"):
        "7d96ce448391d6f143249c1a9322326ba1d5874e043979e5921ec53d5fcac5b9",
    ("construct", "--levels", "1", "--digit-policy", "min"):
        "b13ef0231a80cf9b1a712eeb87579fc3ec131732ebb9810dae2359c45fd95d24",
    ("construct", "--levels", "1", "--digit-policy", "max"):
        "1f8885782be92f830ac4e76a7108cd5ee8acf0ab6787c7743db75b2f001be7a8",
    # re-recorded when the arcs became exact lo/hi enclosures
    ("three-gap", "--N", "123456789", "--offset", "3/97"):
        "8b4783d734ce0b9cb0ffb9ef179e8639bb7b5f28cd42ede995d64dab90646868",
    ("dimension", "--multipliers", "1,7"):
        "624dc24279eae66b5d66a1e568fa682e75ae7fe20551aec603f76132d10f338e",
    ("dimension", "--multipliers", "1,7", "--exact-charpoly"):
        "05488d33b60c8fa89788f5db7202c2ab047789476e3e44d99c62a8d9993904c9",
    # re-recorded when the float seed began to iterate A on primitive
    # components; test_dimension.PARENT_ENCLOSURES holds the old enclosure
    ("dimension", "--multipliers", "1,4,256", "--exact-charpoly"):
        "3ee3ced92ce98ff1489c7fdcd3d0fa7a418c739ecb96850a810de8f689dc89ac",
    ("scan", "--max-M", "300"):
        "f5887a672cf4cf3b764fa97d1933b1e82e742af34f975128925f888c0c8ec169",
    ("search-n", "--multipliers", "1,4,256"):
        "04cc8f3d247cb2872458c17d7b9f306d22aa639cd6285584bf836df748cf5337",
    # no witness at any size
    ("search-n", "--multipliers", "4,7"):
        "996ed643d6d0d2576312d15a38905bac49e5686a270e0f8919ced1e71df26605",
}


def test_stdout_bytes_are_pinned():
    digests = {}
    for argv in PINNED_STDOUT:
        text, code = dispatch(list(argv))
        assert code == 0
        digests[argv] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == PINNED_STDOUT
