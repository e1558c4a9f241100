import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import run_cli
from unipcount import cli
from unipcount.diagrams import all_diagrams, diagram_text, format_diagram
from unipcount.errors import MAX_PARTITIONED
from unipcount.unipotent import (
    COMPLEX_KINDS,
    HERMITIAN_KINDS,
    QUATERNIONIC_KINDS,
    GroupKind,
    OrbitSpec,
    cell_rep,
    coherent_module,
    count_record,
    make_group,
    query_record,
)
from unipcount.weylmodules import ModuleDecomp


def test_count_table_prints_number(cli_runner):
    code, out, err = cli_runner(
        ["count", "--group", "su", "--p", "1", "--q", "1", "--orbit", "1,1"]
    )
    assert code == 0
    assert out == "3\n"
    assert err == ""


def test_count_json_record(cli_runner):
    code, out, _ = cli_runner(
        [
            "count",
            "--group",
            "su",
            "--p",
            "1",
            "--q",
            "1",
            "--orbit",
            "1,1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] == 3
    assert rec["method"] == "multiplicity"
    assert rec["n_h"] == 0 and rec["n_0"] == 2


LONG_ROW = "99999999999999999999999"  # longer than sys.maxsize


@pytest.mark.parametrize("kind, count", [("gl-r", 2), ("sl-r", 1), ("gl-c", 1), ("sl-c", 1)])
def test_real_count_at_a_row_longer_than_maxsize(cli_runner, kind, count):
    code, out, err = cli_runner(["count", "--group", kind, "--orbit", LONG_ROW])
    assert (code, out, err) == (0, f"{count}\n", "")
    code, out, _ = cli_runner(["count", "--group", kind, "--orbit", LONG_ROW, "--format", "json"])
    rec = json.loads(out)
    assert (code, rec["count"], rec["n_h"], rec["n_0"]) == (0, count, 0, int(LONG_ROW))


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--group", "su", "--p", "49999999999999999999999", "--q", "50000000000000000000000"],
        ["count", "--group", "u-tilde", "--p", "0", "--q", LONG_ROW],
        ["cell", "--group", "gl-c"],
    ],
    ids=["count-su", "count-u-tilde", "cell-gl-c"],
)
def test_a_cell_label_longer_than_maxsize_is_refused(cli_runner, argv):
    # The cell labels would have LONG_ROW rows: one error line, no traceback.
    code, out, err = cli_runner([*argv, "--orbit", LONG_ROW])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert LONG_ROW in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--group", "su", "--p", "2000000000", "--q", "2000000000", "--orbit", "4000000000"],
        ["cell", "--group", "u-tilde", "--p", "2000000000", "--q", "2000000000", "--orbit", "4000000000"],
        ["coh", "--group", "gl-c", "--orbit", LONG_ROW],
        ["coh", "--group", "su", "--p", "1", "--q", "3999999999", "--orbit", "4000000000"],
    ],
    ids=["count-su", "cell-u-tilde", "coh-gl-c", "coh-su"],
)
def test_a_list_past_its_size_bound_is_refused(cli_runner, argv):
    # Each would list billions of entries (a c_odd list, a cell label's rows,
    # the partitions of n): one error line naming the row or n, no traceback.
    code, out, err = cli_runner(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert argv[-1] in err


@pytest.mark.parametrize("kind", ["su", "u-tilde"])
def test_long_rows_of_even_multiplicity_count(cli_runner, kind):
    row = "100000000000000000000000"
    code, out, err = cli_runner(["count", "--group", kind, "--p", row, "--q", row, "--orbit", f"{row},{row}"])
    assert (code, out, err) == (0, f"{10**23 + 2}\n", "")


def test_enumerate_sl_r_rows(cli_runner):
    code, out, _ = cli_runner(
        ["enumerate", "--group", "sl-r", "--n", "4", "--orbit", "2,2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("+") and lines[2].endswith("-")
    assert "[2,2]" in lines[0]


def test_unsupported_quaternionic_kind_exits_1(cli_runner):
    code, out, err = cli_runner(
        ["count", "--group", "sl-h", "--n", "4", "--orbit", "2,2"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "bijection" in err


def test_size_mismatch_exits_1(cli_runner):
    code, _, err = cli_runner(
        ["count", "--group", "su", "--p", "1", "--q", "1", "--orbit", "3"]
    )
    assert code == 1
    assert "error:" in err


def test_bad_orbit_exits_1(cli_runner):
    code, _, err = cli_runner(["count", "--group", "gl-r", "--orbit", "2,0"])
    assert code == 1
    assert "error:" in err


def test_chartable_negative_degree_exits_1(cli_runner):
    assert cli_runner(["chartable", "--n", "-1"]) == (1, "", "error: cannot partition a negative total: -1\n")


def test_usage_errors_exit_2(cli_runner):
    code, _, _ = cli_runner(["count", "--group", "su", "--orbit", "1,1"])
    assert code == 2
    code, _, _ = cli_runner(["count", "--group", "nope", "--orbit", "1,1"])
    assert code == 2
    code, _, _ = cli_runner(["frobnicate"])
    assert code == 2
    code, _, _ = cli_runner(
        ["count", "--group", "gl-r", "--orbit", "2,1", "--orbit2", "3"]
    )
    assert code == 2


def test_complex_orbit2_defaults_to_orbit(cli_runner):
    code, out, _ = cli_runner(
        ["count", "--group", "sl-c", "--orbit", "2,1", "--format", "json"]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["orbit"] == [[2, 1], [2, 1]]
    assert rec["count"] == 1
    code, out, _ = cli_runner(
        ["count", "--group", "sl-c", "--orbit", "2,1", "--orbit2", "3"]
    )
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize("kind", ["su", "gl-r"])
def test_an_empty_orbit2_is_a_usage_error_for_a_non_complex_kind(cli_runner, kind):
    group = ["--p", "1", "--q", "1"] if kind == "su" else ["--n", "2"]
    code, out, err = cli_runner(["count", "--group", kind, *group, "--orbit", "1,1", "--orbit2", ""])
    assert (code, out) == (2, "")
    assert "--orbit2 is only meaningful" in err


@pytest.mark.parametrize("kind", ["gl-c", "sl-c"])
def test_an_empty_orbit2_is_refused_like_an_empty_orbit_for_a_complex_kind(cli_runner, kind):
    refused = (1, "", "error: cannot parse orbit ''\n")
    assert cli_runner(["count", "--group", kind, "--orbit", "2,1", "--orbit2", ""]) == refused
    assert cli_runner(["count", "--group", kind, "--orbit", ""]) == refused


def test_coh_json_includes_parts_for_cover(cli_runner):
    code, out, _ = cli_runner(
        [
            "coh",
            "--group",
            "u-tilde",
            "--p",
            "1",
            "--q",
            "1",
            "--orbit",
            "1,1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["shape"] == [0, 2]
    assert rec["mults"] == [
        {"key": [[], [2]], "m": 3},
        {"key": [[], [1, 1]], "m": 1},
    ]
    assert set(rec["parts"]) == {"genuine", "non_genuine"}


def test_coh_rejects_real_kinds(cli_runner):
    code, _, err = cli_runner(["coh", "--group", "gl-r", "--orbit", "2,1"])
    assert code == 1
    assert "no coherent continuation decomposition" in err


def test_coh_table_output(cli_runner):
    code, out, _ = cli_runner(
        ["coh", "--group", "su", "--p", "2", "--q", "1", "--orbit", "2,1"]
    )
    assert code == 0
    assert out.splitlines() == ["shape: 2,1", "1  [2] [1]"]


def test_cell_outputs(cli_runner):
    code, out, _ = cli_runner(
        ["cell", "--group", "su", "--p", "2", "--q", "2", "--orbit", "2,1,1"]
    )
    assert code == 0
    assert out == "[1,1] [2]\n"
    code, out, _ = cli_runner(
        ["cell", "--group", "sl-c", "--orbit", "2,1", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["cell"] == [[1, 1], [1], [1, 1], [1]]


def test_chartable_cache_and_determinism(cli_runner, tmp_path):
    import unipcount.symreps as symreps

    args = ["chartable", "--n", "5", "--cache-dir", str(tmp_path)]
    symreps._TABLES.pop(5, None)
    code, cold, _ = cli_runner(args)
    assert code == 0
    assert (tmp_path / "chartable_5.json").is_file()
    symreps._TABLES.pop(5, None)
    code, warm, _ = cli_runner(args)
    assert code == 0
    assert warm == cold


def test_chartable_cache_with_non_utf8_bytes_is_a_miss(cli_runner, tmp_path):
    import unipcount.symreps as symreps

    path = tmp_path / "chartable_3.json"
    path.write_bytes(b"\xff\xfe{")
    symreps._TABLES.pop(3, None)
    code, out, err = cli_runner(["chartable", "--n", "3", "--cache-dir", str(tmp_path)])
    assert (code, err) == (0, "")
    assert out == cli_runner(["chartable", "--n", "3"])[1]
    assert symreps._load_table(3, tmp_path) == symreps.character_table(3)


def test_chartable_cache_env_var(cli_runner, tmp_path, monkeypatch):
    import unipcount.symreps as symreps

    monkeypatch.setenv("UNIPCOUNT_CACHE_DIR", str(tmp_path))
    symreps._TABLES.pop(4, None)
    code, _, _ = cli_runner(["chartable", "--n", "4"])
    assert code == 0
    assert (tmp_path / "chartable_4.json").is_file()


@pytest.mark.parametrize(
    "command, stored",
    [
        (["chartable", "--n", "3"], ["chartable_3.json"]),
        (["verify", "--max-size", "2"], ["chartable_1.json", "chartable_2.json"]),
    ],
    ids=["chartable", "verify"],
)
def test_cache_dir_flag_wins_over_the_env_var(cli_runner, tmp_path, monkeypatch, command, stored):
    # Both table commands read the same default: --cache-dir when it is
    # given and not empty, else UNIPCOUNT_CACHE_DIR.
    flag, env = tmp_path / "flag", tmp_path / "env"
    monkeypatch.setenv("UNIPCOUNT_CACHE_DIR", str(env))
    assert cli_runner([*command, "--cache-dir", str(flag)])[0] == 0
    assert (sorted(p.name for p in flag.iterdir()), env.exists()) == (stored, False)
    assert cli_runner([*command, "--cache-dir", ""])[0] == 0
    assert sorted(p.name for p in env.iterdir()) == stored


def test_chartable_json_shape(cli_runner):
    code, out, _ = cli_runner(["chartable", "--n", "3", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["classes"] == [[3], [2, 1], [1, 1, 1]]
    assert rec["table"]["3"] == [1, 1, 1]
    assert rec["table"]["1,1,1"] == [1, -1, 1]


def test_verify_passes(cli_runner):
    code, out, _ = cli_runner(["verify", "--max-size", "4"])
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"
    code, out, _ = cli_runner(["verify", "--max-size", "4", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["all_passed"] is True
    assert all(c["pass"] for c in rec["checks"])


def test_verify_reports_a_failing_check(cli_runner, monkeypatch):
    # Text output names each failing instance of a check that has one, and
    # the instance count of every other check, then how many failed; both
    # formats exit 1.
    checks = [
        {"check": "alpha", "instance": "n=1", "expected": "1", "actual": "1", "pass": True},
        {"check": "alpha", "instance": "n=2", "expected": "2", "actual": "2", "pass": True},
        {"check": "beta", "instance": "n=1", "expected": "3", "actual": "4", "pass": False},
        {"check": "beta", "instance": "n=2", "expected": "5", "actual": "5", "pass": True},
        {"check": "gamma", "instance": "all", "expected": "0", "actual": "0", "pass": True},
    ]
    monkeypatch.setattr(cli, "run_checks", lambda max_size: [dict(c) for c in checks])
    code, out, err = cli_runner(["verify", "--max-size", "2"])
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "ok alpha: 2 instances",
        "FAIL beta n=1: expected 3, got 4",
        "ok gamma: 1 instances",
        "1 checks failed",
    ]
    code, out, err = cli_runner(["verify", "--max-size", "2", "--format", "json"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"max_size": 2, "checks": checks, "all_passed": False}


def test_chartable_cache_file_holds_the_json_table(cli_runner, tmp_path):
    # The cache file and `--format json` write one row format.
    code, out, _ = cli_runner(["chartable", "--n", "5", "--cache-dir", str(tmp_path), "--format", "json"])
    assert code == 0
    cached = json.loads((tmp_path / "chartable_5.json").read_text())
    assert cached == json.loads(out)["table"]


# SHA-256 of (`chartable --n k` stdout, its `--format json` stdout, the bytes
# of chartable_k.json) for k = 0..12. A degree-0 table is never stored.
CHARTABLE_SHA256 = {
    0: ("a9d392f7f1a0d317b37176b5d8d542d4d4799c9a7d6cb7d02374462ae32e2d44", "e8359d07c84e64adbf98a30240c0ad563c5142d824dc28f8fdab23d24dcf0356", None),
    1: ("f87491432c3a6770b8e6da9c5205bab680514181c6fe88a17957bf4da787d566", "47cc3e764db4982dbdcd87bd3f5ce0b75b64f122616d64381a421f377de3a96d", "a10379ac32c59d177d2e274a8fbd1b8865e05b94b766587b42305f3e89231474"),
    2: ("fac0b29063178abb4a7d889c7d43e27fa91cfea9a5cd5b47168ebde579fbaed3", "1d46a2573eaa73a39fd580ff405e516925c46a0262de0739f3e0fee53d3cc7dc", "06474742eee74e2cd1e47fcd301681a8bae076cc21f2c3dd0b07994a7b6baf3c"),
    3: ("cc1b6e2c3bc8f045f25333c6620a2774032a15ae4bb4b7929c13890e01f2d3da", "37d02f7d16cbff86af91cb5fc65a53a956b318d6931083c9be4457290b0d3bed", "2e2d3f2cb5a4c29ab6121bc8d14648e6b5de403d557aa5cb1b1dcd770b32796b"),
    4: ("77cd23dde1a3f14410952089cc1bfc57f34f3b28d1e1afc7f1b47c6c920ec3e9", "5ae8b91f33a8d34983351aecf8facf940a17bd7c92cedf116f574dd1ad5cfffe", "158436259e9bf724d9a6052e1dbf6ac7c9ee77625bb0c4522e7e2a15a5cf08fa"),
    5: ("42e2c2de4d663902a6758caac82eea4c9479f306a8462a7cf2839bce110e40bd", "bb74e68cc784471e17a5c7e571bc742109505106f5bd8788f5a8872371db068d", "8ffe0c997fd9aeeac87b75f0ae2957efcf8d16b9a309f7d2534c4b28324b0275"),
    6: ("b90b7460f17bb4d1d51ea1ee6e35b0d68a918635bd78361112a70ac92ad43db7", "8dedf1bb2904f3b80aa858096fdf2ab90aa9f6806d6e52d065e602d3863e75f3", "10adf4b4ab8ec31ea12a3257151351230fa11298dc7450e690d8d9e695bf0172"),
    7: ("386896598329d6b170c82cfff702a3908e2d4ed15667ec13e837ad23f670dbf8", "9e38cb3bc257c0930a3f1f7e02c5edca644a14d8f729fa22dd79d9e92e92c194", "242ea7174bbe9bbb3e48cf7dfbbf86be916a1e59b0c08f3b08e7671398a641a4"),
    8: ("de6a543b58bafceb17f5ba1fc0d6f306c671866b3931ea9665158668fb2f10ae", "c20af357b8642d0b466513fca7c262d0217c23f72ac16bea7d7c8add66e0cd22", "f3718fabc1d8140de28bf9720e58b4640e50e695abb8cdbcd9d6e177bd901dbe"),
    9: ("bf7a1fc052ce2bc548cd52369e0b8a0fe8249715bb35209c63a49f13a7d40421", "91a84909e3222e2b39410496736c65bc1a17a6063e64f54958948fd88a4f3650", "62d51946c2e8bf1ff4a785288e9a6f458a34709ee3b0eed240425029d71fc7d8"),
    10: ("b59adeb67f7d449122921e6fd9a75242cdf3421300794bdf807c7d3a46d82dc3", "5b325b80c564e044accdb0d858cb7c0ea89a628be6de2152ae134bf62ac69a2e", "4e0703bb40e32d11fb06dcfeaa202930432cc0d85caa265bba92c56b0800950a"),
    11: ("411b001005f51a066021b50cff7b574fe7fec13b4539c088bff50643d0972228", "0b51aaf3806a2d32d5a819729751baa6e4601555d7ab107b39e13ab44d09d7eb", "81e10b97abcd850eb727b0dcd781b09369f2d52bf8d9f4d994e43b9c9d9ee69d"),
    12: ("38ae9f998fe68274d9a1bc6939f0957b2f90925da605d6548fdb6d853976b27f", "dde7285b7627d611f2b86fa8c0fb55396ae39814d9b283a7b977ffc0cda8087e", "960001eb5470f9b9f4779b21549d84657b83400e9877beb9079c098cd6bb2400"),
}


@pytest.mark.parametrize("k", sorted(CHARTABLE_SHA256))
def test_chartable_bytes_match_their_recorded_digests(cli_runner, tmp_path, k):
    table_digest, json_digest, file_digest = CHARTABLE_SHA256[k]
    digest = lambda data: sha256(data).hexdigest()
    code, out, err = cli_runner(["chartable", "--n", str(k)])
    assert (code, err, digest(out.encode())) == (0, "", table_digest)
    code, out, err = cli_runner(["chartable", "--n", str(k), "--format", "json", "--cache-dir", str(tmp_path)])
    assert (code, err, digest(out.encode())) == (0, "", json_digest)
    path = tmp_path / f"chartable_{k}.json"
    assert (digest(path.read_bytes()) if path.exists() else None) == file_digest


def _queries(max_n):
    """Every (group, orbit) that count takes with n <= max_n: every counted
    kind, every (p, q) of the hermitian kinds and every ordered pair of
    diagrams of the complex kinds."""
    for kind in GroupKind:
        for n in range(1, max_n + 1) if kind not in QUATERNIONIC_KINDS else ():
            if kind in HERMITIAN_KINDS:
                groups = [make_group(kind, p=p, q=n - p) for p in range(n + 1)]
            else:
                least = 1 if kind in (GroupKind.GL_R, GroupKind.GL_C) else 2
                groups = [make_group(kind, n=n)] if n >= least else []
            diagrams = all_diagrams(n)
            if kind in COMPLEX_KINDS:
                orbits = [OrbitSpec(d, e) for d in diagrams for e in diagrams]
            else:
                orbits = list(map(OrbitSpec, diagrams))
            yield from ((group, orbit) for group in groups for orbit in orbits)


def _cell_line(group, orbit):
    """The stdout line of `cell --format json` at the group and orbit."""
    cell = [list(d) for d in cell_rep(group, orbit)]
    return json.dumps(query_record(group, orbit, cell=cell)) + "\n"


# SHA-256 of the `count --format json` lines and of the `cell --format json`
# lines of every query of _queries(10), in that order, recorded before the
# orbit record was read off the row profile. Computed in-process.
COUNT_SHA256 = "d36c20302072bbacd57e6a88d30a81749d74d23f61f27b935d19fed32bf03067"
CELL_SHA256 = "37439e46c299a0d70aefe9723157155f4e5e8ffadbcc63fe3c8775d80a7e9373"


def test_count_and_cell_bytes_match_their_recorded_digests():
    counts, cells = sha256(), sha256()
    for group, orbit in _queries(10):
        counts.update((json.dumps(count_record(group, orbit)) + "\n").encode())
        if group.kind in HERMITIAN_KINDS | COMPLEX_KINDS:
            cells.update(_cell_line(group, orbit).encode())
    assert (counts.hexdigest(), cells.hexdigest()) == (COUNT_SHA256, CELL_SHA256)


# SHA-256 of the stdout of `enumerate`, in table and in JSON form, at every
# gl-r orbit with n <= 10 and every sl-r orbit with 2 <= n <= 10, in order of
# size, then of all_diagrams, gl-r before sl-r. Recorded while the table was
# still rendered from the JSON record. Computed in-process.
ENUMERATE_SHA256 = {
    "table": "2b2428e0e11dd1f57a733e2e93c135f0735ea4800921933cabec65002cccd8c7",
    "json": "0a9677c50e1519e901a203aa59fe8480903b519ef34c9f7af81327ebfb72169e",
}


ENUMERATE_ORBIT = "6,5,5,4,4,4,3,3,3,3,2,2,2,2,2,1,1,1,1,1,1"  # 6! = 5,040 gl-r rows


@pytest.mark.parametrize("fmt", sorted(ENUMERATE_SHA256))
def test_enumerate_bytes_match_their_recorded_digests(cli_runner, fmt):
    digest, queries = sha256(), 0
    for n in range(1, 11):
        for orbit in all_diagrams(n):
            for kind in ("gl-r", "sl-r") if n >= 2 else ("gl-r",):
                argv = ["enumerate", "--group", kind, "--orbit", diagram_text(orbit), "--format", fmt]
                code, out, err = cli_runner(argv)
                assert (code, err) == (0, "")
                digest.update(out.encode())
                queries += 1
    assert (queries, digest.hexdigest()) == (275, ENUMERATE_SHA256[fmt])


# SHA-256 of the stdout of `coh`, in table and in JSON form, at every orbit
# with n <= 6 in order of size, then of all_diagrams: su at p = 0..n, u-tilde
# at p = 0..n, gl-c, and sl-c when n >= 2. Recorded before each label's text
# was rendered once per command. Computed in-process.
COH_SHA256 = {
    "table": "e78b50eadd2f90df54615e253243dd6333163478a67cc78505b91af0a61d7891",
    "json": "3ef52618617f064f7dd8d6d5908a890c72cb612f306d7314b4a6629ab28b2990",
}


@pytest.mark.parametrize("fmt", sorted(COH_SHA256))
def test_coh_bytes_match_their_recorded_digests(cli_runner, fmt):
    digest, queries = sha256(), 0
    for n in range(1, 7):
        for orbit in all_diagrams(n):
            groups = [[kind, "--p", str(p), "--q", str(n - p)] for kind in ("su", "u-tilde") for p in range(n + 1)]
            groups += [["gl-c"]] + ([["sl-c"]] if n >= 2 else [])
            for group in groups:
                argv = ["coh", "--group", *group, "--orbit", diagram_text(orbit), "--format", fmt]
                code, out, err = cli_runner(argv)
                assert (code, err) == (0, "")
                digest.update(out.encode())
                queries += 1
    assert (queries, digest.hexdigest()) == (385, COH_SHA256[fmt])


def test_coh_json_past_the_digests_writes_the_bytes_of_the_list_form(monkeypatch):
    # A u-tilde query with parts at n = 10, past the n <= 6 of COH_SHA256.
    argv = ["coh", "--group", "u-tilde", "--p", "5", "--q", "5", "--orbit", "3,3,2,1,1", "--format", "json"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "") and '"parts"' in out
    monkeypatch.setattr(ModuleDecomp, "to_json_obj", reference.module_json_obj)
    assert run_cli(argv) == (code, out, err)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(2, 30).flatmap(lambda n: st.sampled_from(all_diagrams(n))),
    st.sampled_from(["gl-r", "sl-r"]),
)
def test_enumerate_table_renders_each_json_row(orbit, kind):
    # The table streams its rows and never reads the record, so this keeps
    # the two forms in step: each line is the reference rendering of its row.
    argv = ["enumerate", "--group", kind, "--orbit", diagram_text(orbit)]
    code, table, _ = run_cli(argv)
    _, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    assert table.splitlines() == [reference.enumerate_line(row) for row in json.loads(out)["params"]]


@pytest.mark.parametrize("fmt, bound", [("table", 1), ("json", 10)])
def test_enumerate_table_streams_its_rows(fmt, bound):
    # 6! = 5,040 rows; the whole table is 0.9 MB of text. The JSON record is
    # built whole, but its rows share their [length, tag] pairs.
    argv = ["enumerate", "--group", "gl-r", "--orbit", ENUMERATE_ORBIT, "--format", fmt]
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < bound * 1024 * 1024


def test_a_closed_pipe_stops_enumerate_quietly(child_env):
    # The reader takes one line of 5,040 and closes the pipe: exit 1, and
    # nothing on stderr.
    proc = subprocess.Popen(
        [sys.executable, "-m", "unipcount.cli", "enumerate", "--group", "gl-r", "--orbit", ENUMERATE_ORBIT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env,
    )
    try:
        assert proc.stdout.readline().startswith(b"0  [6,5,5,")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_coh_table_renders_each_label_once(cli_runner, monkeypatch):
    rendered = []
    monkeypatch.setattr(cli, "format_diagram", lambda d: rendered.append(d) or format_diagram(d))
    code, out, _ = cli_runner(["coh", "--group", "sl-c", "--orbit", "4,4,3,2,1"])
    group, orbit = make_group("sl-c", n=14), OrbitSpec((4, 4, 3, 2, 1), (4, 4, 3, 2, 1))
    labels = {d for key, _ in coherent_module(group, orbit).entries() for d in key}
    assert code == 0
    assert len(rendered) == len(set(rendered)) == len(labels) == 47


@pytest.mark.parametrize(
    "argv, group, orbit",
    [
        ("--group su --p 3 --q 2 --orbit 2,2,1", make_group("su", p=3, q=2), OrbitSpec((2, 2, 1))),
        ("--group u-tilde --p 0 --q 4 --orbit 3,1", make_group("u-tilde", p=0, q=4), OrbitSpec((3, 1))),
        ("--group gl-r --n 4 --orbit 2,1,1", make_group("gl-r", n=4), OrbitSpec((2, 1, 1))),
        ("--group sl-c --n 3 --orbit 2,1 --orbit2 1,1,1", make_group("sl-c", n=3), OrbitSpec((2, 1), (1, 1, 1))),
    ],
)
def test_pinned_lines_are_what_the_cli_writes(cli_runner, argv, group, orbit):
    # The digests above hash lines built in-process; these are the CLI's own.
    argv = argv.split()
    code, out, _ = cli_runner(["count", *argv, "--format", "json"])
    assert (code, out) == (0, json.dumps(count_record(group, orbit)) + "\n")
    if group.kind in HERMITIAN_KINDS | COMPLEX_KINDS:
        code, out, _ = cli_runner(["cell", *argv, "--format", "json"])
        assert (code, out) == (0, _cell_line(group, orbit))


@pytest.mark.parametrize("max_size, degrees", [(4, range(1, 5)), (10, range(1, 11))])
def test_verify_caches_every_table_it_reads(cli_runner, tmp_path, max_size, degrees):
    code, _, _ = cli_runner(["verify", "--max-size", str(max_size), "--cache-dir", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"chartable_{n}.json" for n in degrees
    )


@pytest.mark.parametrize("max_size", [51, 60])
def test_verify_past_the_partition_bound_is_refused_at_once(child_env, tmp_path, max_size):
    # Unchecked, every sweep would run through n = 50 before all_diagrams
    # refused the size (12.6 s at 51 on a 2-vCPU host): refused first, with
    # no table stored.
    argv = ["verify", "--max-size", str(max_size), "--cache-dir", str(tmp_path)]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "unipcount.cli", *argv], capture_output=True, text=True, env=child_env, timeout=60
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: cannot list the partitions of {max_size}: the bound is n <= {MAX_PARTITIONED}\n"
    assert elapsed < 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command", [["chartable", "--n", "3"], ["verify", "--max-size", "2"]], ids=["chartable", "verify"]
)
def test_unwritable_cache_is_a_domain_error(cli_runner, tmp_path, command):
    # A regular file where the cache directory should be: one error line on
    # stderr and exit 1, no traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = cli_runner([*command, "--cache-dir", str(blocker)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker) in err


def test_verify_max_size_below_1_is_usage_error(cli_runner):
    for size in ("0", "-3"):
        code, out, err = cli_runner(["verify", "--max-size", size, "--format", "json"])
        assert code == 2
        assert out == ""
        assert "--max-size" in err



@pytest.mark.parametrize("command", ["count", "enumerate", "coh", "cell"])
def test_group_commands_take_no_cache_dir(cli_runner, command, tmp_path):
    # Only chartable and verify read the character-table cache.
    code, out, err = cli_runner(
        [command, "--group", "su", "--p", "1", "--q", "1", "--orbit", "1,1",
         "--cache-dir", str(tmp_path / "x")]
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --cache-dir" in err


@pytest.mark.parametrize("stray_orbit2", [False, True], ids=["orbit2", "stray-orbit2"])
@pytest.mark.parametrize("bad_orbit", [False, True], ids=["orbit", "bad-orbit"])
@pytest.mark.parametrize("bad_group", [False, True], ids=["group", "bad-group"])
@pytest.mark.parametrize("bad_pq", [False, True], ids=["pq", "bad-pq"])
@pytest.mark.parametrize("kind", ["su", "gl-r"])
def test_group_argument_errors_come_in_a_fixed_order(
    cli_runner, kind, bad_pq, bad_group, bad_orbit, stray_orbit2
):
    # --p/--q usage first, then the group, then the orbit, then --orbit2.
    if kind == "su":
        group = ["--p", "-1" if bad_group else "2"] + ([] if bad_pq else ["--q", "1"])
        expected = [
            (bad_pq, 2, "requires --p and --q"),
            (bad_group, 1, "requires p, q >= 0"),
        ]
    else:
        group = ["--n", "0" if bad_group else "3"] + (["--p", "1"] if bad_pq else [])
        expected = [(bad_pq, 2, "takes --n, not --p/--q"), (bad_group, 1, "requires n >= 1")]
    expected += [
        (bad_orbit, 1, "cannot parse orbit"),
        (stray_orbit2, 2, "--orbit2 is only meaningful"),
        (True, 0, ""),
    ]
    argv = ["count", "--group", kind, *group, "--orbit", "2,x" if bad_orbit else "2,1"]
    code, out, err = cli_runner(argv + (["--orbit2", "3"] if stray_orbit2 else []))
    want_code, want_message = next((c, m) for applies, c, m in expected if applies)
    assert code == want_code
    assert want_message in err
    assert (out != "") == (want_code == 0)


# Group arguments with an orbit that does not fit the group, for every kind.
WRONG_SIZE = [
    ("gl-r", ["--n", "3", "--orbit", "2,1,1"]),
    ("sl-r", ["--n", "3", "--orbit", "2,1,1"]),
    ("gl-c", ["--n", "3", "--orbit", "2,1,1"]),
    ("gl-c", ["--orbit", "2,1", "--orbit2", "4"]),
    ("sl-c", ["--n", "3", "--orbit", "2,1,1"]),
    ("sl-c", ["--orbit", "2,1", "--orbit2", "4"]),
    ("su", ["--p", "1", "--q", "1", "--orbit", "3"]),
    ("u-tilde", ["--p", "1", "--q", "1", "--orbit", "3"]),
    ("gl-h", ["--n", "4", "--orbit", "3,2"]),
    ("sl-h", ["--n", "4", "--orbit", "3,2"]),
]

# Kinds a command refuses before looking at the orbit, with their error.
REFUSED = {
    "count": dict.fromkeys(["gl-h", "sl-h"], "bijection"),
    "enumerate": dict.fromkeys(
        ["gl-c", "sl-c", "su", "u-tilde", "gl-h", "sl-h"], "explicit enumeration"
    ),
    "cell": dict.fromkeys(["gl-r", "sl-r", "gl-h", "sl-h"], "no cell label"),
    "coh": dict.fromkeys(
        ["gl-r", "sl-r", "gl-h", "sl-h"], "no coherent continuation decomposition"
    ),
}


@pytest.mark.parametrize("command", sorted(REFUSED))
@pytest.mark.parametrize("kind,group_args", WRONG_SIZE)
def test_wrong_size_orbit_exits_1(cli_runner, command, kind, group_args):
    code, out, err = cli_runner([command, "--group", kind, *group_args])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert REFUSED[command].get(kind, "match n =") in err


def test_console_script_end_to_end(child_env):
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from unipcount.cli import main; "
            "sys.argv = ['unipcount', 'count', '--group', 'su', "
            "'--p', '1', '--q', '1', '--orbit', '1,1']; main()",
        ],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_cli_import_loads_every_layer_and_no_heavy_stdlib_module(child_env):
    # A cold CLI process pays for every module `import unipcount.cli` pulls in:
    # dataclasses (with inspect), fractions and json cost more than the engine.
    # bench/child.py reads every layer in spans.LAYERS from sys.modules.
    spans_path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    code = (
        "import sys; before = set(sys.modules); import unipcount.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, check=True
    )
    added = set(proc.stdout.split())
    assert not added & {"dataclasses", "inspect", "fractions", "json"}
    assert {f"unipcount.{layer}" for layer in spans.LAYERS} <= added


def test_passing_checks_never_import_fractions(child_env):
    # The oracle sums integers; only a mismatch message builds a Fraction.
    code = (
        "import sys; from unipcount.oracle import run_checks; "
        "assert all(e['pass'] for e in run_checks(4)); print('fractions' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, check=True
    )
    assert proc.stdout.strip() == "False"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "group_args, orbit, count",
    [
        (["su", "--p", "34", "--q", "34"], "15,13,11,9,7,5,3,2,2,1", 1026),
        (["su", "--p", "54", "--q", "54"], "19,17,15,13,11,9,7,5,3,2,2,2,2,1", 8262),
        (["sl-r", "--n", "156"], ",".join(str(r) for r in range(12, 0, -1) for _ in "ab"), 265722),
        (["sl-r", "--n", "182"], ",".join(str(r) for r in range(13, 0, -1) for _ in "ab"), 797163),
    ],
    ids=["su-n68", "su-n108", "sl-r-n156", "sl-r-n182"],
)
def test_large_counts_run_in_bounded_memory(group_args, orbit, count, child_env):
    # Counts are arithmetic: these orbits (n = 68 to 182) count in a fraction
    # of a second under a 1 GiB address-space limit on the child.
    proc = subprocess.run(
        [sys.executable, "-m", "unipcount.cli", "count", "--group", *group_args, "--orbit", orbit],
        capture_output=True,
        text=True,
        env=child_env,
        preexec_fn=_limit_address_space,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{count}\n"
