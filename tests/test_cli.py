from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genquot as gq
from genquot.cli import main

from conftest import THRESHOLDS_PATH


@pytest.fixture()
def body_file(tmp_path):
    path = tmp_path / "body.mtx"
    assert main(["sample", "--n", "3", "--N", "9", "--seed", "42", "--out", str(path)]) == 0
    return path


def test_version(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "genquot 1.0.0" in out and "genquot-report/1" in out


def test_python_m_genquot_version():
    src = str(Path(gq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "genquot", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"genquot {gq.__version__} (report schema {gq.REPORT_SCHEMA})"


def test_unknown_flag_exits_2():
    assert main(["sample", "--n", "2", "--N", "4", "--seed", "1", "--out", "x", "--bogus"]) == 2


def test_missing_seed_exits_2(tmp_path):
    assert main(["sample", "--n", "2", "--N", "4", "--out", str(tmp_path / "b.mtx")]) == 2


def test_unknown_suite_exits_2():
    assert main(["verify", "nosuch", "--seed", "1"]) == 2


def test_sample_and_load(body_file):
    body = gq.load_body(body_file)
    assert (body.n, body.N) == (3, 9)
    assert body.seed == gq.SeedSpec(42, 0)


def test_sample_hex_seed(tmp_path, capsys):
    path = tmp_path / "b.mtx"
    assert main(["sample", "--n", "2", "--N", "4", "--seed", "0x2A", "--out", str(path)]) == 0
    assert gq.load_body(path).seed == gq.SeedSpec(42, 0)


def test_norm_commands(body_file, capsys):
    body = gq.load_body(body_file)
    assert main(["norm", "--body", str(body_file), "--vec", "1,-2,0.5"]) == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == pytest.approx(gq.body_norm(body, [1, -2, 0.5]), abs=1e-12)

    assert main(["dualnorm", "--body", str(body_file), "--vec", "1,-2,0.5"]) == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == pytest.approx(gq.dual_norm(body, [1, -2, 0.5]), abs=1e-12)


def test_opnorm_and_snumbers(body_file, tmp_path, capsys):
    t = gq.gaussian_matrix(3, 3, 1.0, gq.SeedSpec(5, 0))
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(t, mpath)
    assert main(["opnorm", "--body", str(body_file), "--matrix", str(mpath)]) == 0
    capsys.readouterr()
    assert main(["snumbers", "--body", str(body_file), "--matrix", str(mpath)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert len(line.split()) == 3  # three singular values
    assert main(["snumbers", "--body", str(body_file), "--matrix", str(mpath), "--k", "1"]) == 0
    assert "c_1 in [" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["0 0\n", "2 3\n1 0 0\n0 1 0\n"], ids=["0x0", "2x3"])
def test_snumbers_non_square_matrix_exits_2(body_file, tmp_path, capsys, text):
    # T must be n x n with or without --k
    mpath = tmp_path / "t.mtx"
    mpath.write_text(text)
    assert main(["snumbers", "--body", str(body_file), "--matrix", str(mpath)]) == 2
    _assert_usage_error_line(capsys.readouterr().err)


def test_zero_row_body_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.mtx"
    path.write_text("GENQUOT-BODY v1 0 5 0 0\n0 5\n")
    assert main(["norm", "--body", str(path), "--vec", "1"]) == 2
    _assert_io_error_line(capsys.readouterr().err, path)


def test_more_rows_than_columns_body_file_exits_2(tmp_path, capsys):
    path = tmp_path / "tall.mtx"
    path.write_text("GENQUOT-BODY v1 3 2 0 0\n3 2\n1 0\n0 1\n1 1\n")
    assert main(["norm", "--body", str(path), "--vec", "1,1,1"]) == 2
    _assert_io_error_line(capsys.readouterr().err, path)


def test_zero_column_body_file_exits_2(tmp_path, capsys):
    # full rank, but column 3 is zero: a witness block holding it has no column norm
    path = tmp_path / "zero-column.mtx"
    path.write_text("GENQUOT-BODY v1 3 4 0 0\n3 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n")
    argv = ["construct", "l1", "--body", str(path), "--k", "1", "--retries", "1", "--seed", "8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    _assert_io_error_line(err, path)
    assert "column 3 " in err


def test_shiftsearch(body_file, tmp_path, capsys):
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(1.5 * np.eye(3), mpath)
    assert main(["shiftsearch", "--body", str(body_file), "--matrix", str(mpath), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "best_shift 1.5" in out
    assert "proxy_value 0" in out


@pytest.mark.parametrize("argv", [["shiftsearch"], ["snumbers", "--k", "2"]])
def test_shift_search_and_bracket_run_no_inradius_search(body_file, tmp_path, capsys,
                                                         no_radii, argv):
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(gq.gaussian_matrix(3, 3, 1.0, gq.SeedSpec(5, 0)), mpath)
    assert main([*argv, "--body", str(body_file), "--matrix", str(mpath)]) == 0
    assert "[" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["shiftsearch"], ["snumbers", "--k", "2"], ["snumbers"]])
def test_lapack_failure_exits_3(body_file, tmp_path, capsys, svd_fails_on_square, argv):
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(gq.gaussian_matrix(3, 3, 1.0, gq.SeedSpec(5, 0)), mpath)
    assert main([*argv, "--body", str(body_file), "--matrix", str(mpath)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("genquot: numeric error: SVD did not converge")


def test_sample_lapack_failure_exits_3_with_one_line(tmp_path, capsys, svd_always_fails):
    # body_from_matrix's smallest singular value
    assert main(["sample", "--n", "3", "--N", "9", "--seed", "42",
                 "--out", str(tmp_path / "b.mtx")]) == 3
    # the config log line, then one message line
    config, message = capsys.readouterr().err.strip().splitlines()
    assert config.startswith("genquot sample config: ")
    assert message.startswith("genquot: numeric error: SVD did not converge")
    assert not (tmp_path / "b.mtx").exists()


def _assert_usage_error_line(err: str):
    # one message line after the config log line, never a traceback
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("genquot: usage error: ")


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_shiftsearch_too_few_grid_points_exits_2(body_file, tmp_path, capsys, points):
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(1.5 * np.eye(3), mpath)
    assert main(["shiftsearch", "--body", str(body_file), "--matrix", str(mpath),
                 "--grid-points", points]) == 2
    _assert_usage_error_line(capsys.readouterr().err)


def test_shiftsearch_k_zero_exits_2(body_file, tmp_path, capsys):
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(1.5 * np.eye(3), mpath)
    assert main(["shiftsearch", "--body", str(body_file), "--matrix", str(mpath),
                 "--k", "0"]) == 2
    _assert_usage_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["verify", "hsbound", "--trials", "1"], ["calibrate"]])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(tmp_path, capsys, argv, threads):
    out = tmp_path / "out.json"
    assert main(argv + ["--seed", "1", "--threads", threads, "--out", str(out)]) == 2
    _assert_usage_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_radii_meanwidth_volume(body_file, capsys):
    assert main(["radii", "--body", str(body_file), "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "circumradius" in out and "inradius_estimate" in out
    assert main(["meanwidth", "--body", str(body_file), "--samples", "2000", "--seed", "7"]) == 0
    assert "mean_width" in capsys.readouterr().out
    assert main(["volume", "--body", str(body_file)]) == 0
    ratio = gq.volume_ratio(gq.load_body(body_file))
    assert capsys.readouterr().out == f"volume_ratio_per_dim {ratio:.12g}\n"


@pytest.mark.parametrize("n", [2, 3])
def test_radii_zero_restarts_exits_2(tmp_path, capsys, n):
    path = tmp_path / "body.mtx"
    assert main(["sample", "--n", str(n), "--N", "8", "--seed", "3", "--out", str(path)]) == 0
    assert main(["radii", "--body", str(path), "--seed", "7", "--restarts", "0"]) == 2
    _assert_usage_error_line(capsys.readouterr().err)


def test_volume_has_no_sampling_flags(body_file, capsys):
    # the volume is exact: the sampler's flags are gone and argparse rejects them
    assert main(["volume", "--body", str(body_file), "--samples", "10000", "--seed", "7"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_construct_l1_and_witness_file(body_file, tmp_path, capsys):
    wpath = tmp_path / "wit.json"
    code = main(["construct", "l1", "--body", str(body_file), "--seed", "11",
                 "--k", "1", "--out", str(wpath)])
    assert code == 0
    wit = gq.load_witness(wpath)
    assert wit.k == 1


def test_construct_condition_failed_exits_1(body_file):
    # k > n forces sigma_min = 0 and exhausts retries
    assert main(["construct", "l1", "--body", str(body_file), "--seed", "11",
                 "--k", "4", "--retries", "2"]) == 1


@pytest.mark.filterwarnings("ignore::UserWarning")  # relaxed mode warns by design
def test_construct_l2(body_file, tmp_path):
    # N = 9 = n^2 meets the precondition
    assert main(["construct", "l2", "--body", str(body_file), "--seed", "3"]) == 0
    # N < n^2 without a relaxation flag is a usage error
    small = tmp_path / "small.mtx"
    assert main(["sample", "--n", "4", "--N", "8", "--seed", "6", "--out", str(small)]) == 0
    assert main(["construct", "l2", "--body", str(small), "--seed", "3"]) == 2
    # the Remark-4.3 relaxation accepts it with a warning
    assert main(["construct", "l2", "--body", str(small), "--seed", "3",
                 "--relax-alpha", "0.5"]) == 0


def test_numeric_error_exits_3(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("GENQUOT-BODY v1 2 3 0 0\n2 3\n1 1 1\n1 1 1\n")  # rank deficient
    assert main(["norm", "--body", str(bad), "--vec", "1,1"]) == 3


def test_io_error_exits_2(tmp_path):
    assert main(["norm", "--body", str(tmp_path / "missing.mtx"), "--vec", "1,1"]) == 2


def _assert_io_error_line(err: str, path):
    # one message line after the config log line, never a traceback; it names the file
    assert "Traceback" not in err
    line = err.strip().splitlines()[-1]
    assert line.startswith(f"genquot: i/o error: {path}: ")


@pytest.mark.parametrize("text", [
    "[1.0, 2.0]",  # not an object
    '{"prop_success_rate": "high"}',  # non-numeric value
    '{"prop_success_rate": true}',
    '{"prop_success_rate": NaN}',
    '{"no_such_threshold": 1.0}',  # unknown key
])
def test_bad_thresholds_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "th.json"
    path.write_text(text)
    assert main(["verify", "hsbound", "--seed", "1", "--trials", "1",
                 "--thresholds", str(path), "--threads", "1"]) == 2
    _assert_io_error_line(capsys.readouterr().err, path)


@pytest.mark.parametrize("text", [
    "GENQUOT-BODY v1 2 3 0 0\n2 3\n1 0 1\n0 x 1\n",  # non-numeric entry
    "GENQUOT-BODY v1 2 three 0 0\n2 3\n1 0 1\n0 1 1\n",  # non-integer header
])
def test_bad_body_file_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.mtx"
    bad.write_text(text)
    assert main(["norm", "--body", str(bad), "--vec", "1,1"]) == 2
    _assert_io_error_line(capsys.readouterr().err, bad)


# a nan or inf in any input names its source and exits 2, like a non-numeric entry
_NON_FINITE_FILES = {
    "body": ("GENQUOT-BODY v1 2 3 0 0\n2 3\n1 0 1\n0 nan 1\n", gq.load_body),
    "matrix": ("2 2\n1 0\n-inf 1\n", gq.read_matrix),
    "witness": ('{"kind": "l1", "basis": "2 1\\nnan\\n0\\n"}', gq.load_witness),
}


@pytest.mark.parametrize("kind", [*_NON_FINITE_FILES, "--vec"])
def test_non_finite_input_exits_2_naming_its_source(body_file, tmp_path, capsys, kind):
    if kind == "--vec":
        assert main(["norm", "--body", str(body_file), "--vec", "nan,1,0"]) == 2
        assert "entries must be finite" in capsys.readouterr().err
        return
    text, load = _NON_FINITE_FILES[kind]
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    with pytest.raises(gq.IoError) as err:
        load(path)
    assert err.value.path == str(path)
    assert "has a non-finite entry" in err.value.message
    argv = {"body": ["norm", "--vec", "1,1", "--body", str(path)],
            "matrix": ["opnorm", "--body", str(body_file), "--matrix", str(path)]}.get(kind)
    if argv is not None:  # the kinds a CLI command reads
        assert main(argv) == 2
        _assert_io_error_line(capsys.readouterr().err, path)


def test_bad_matrix_file_exits_2(body_file, tmp_path, capsys):
    mpath = tmp_path / "t.mtx"
    mpath.write_text("3 3\n1 0 0\n0 1 0\n0 0 one\n")
    assert main(["opnorm", "--body", str(body_file), "--matrix", str(mpath)]) == 2
    _assert_io_error_line(capsys.readouterr().err, mpath)


# a UTF-8 e-acute: not ASCII, so every reader must refuse it with exit 2
_NON_ASCII = "\u00e9".encode("utf-8")


@pytest.mark.parametrize("name,content,argv", [
    ("body.mtx", b"GENQUOT-BODY v1 2 2 0 0\n2 2\n1 0\n0 " + _NON_ASCII + b"\n",
     ["norm", "--vec", "1,1", "--body"]),
    ("th.json", b'{"prop_' + _NON_ASCII + b'": 1.0}',
     ["verify", "hsbound", "--seed", "1", "--trials", "1", "--threads", "1", "--thresholds"]),
    ("genquot.cfg", b"trials=" + _NON_ASCII + b"\n",
     ["verify", "hsbound", "--seed", "1", "--config"]),
])
def test_non_ascii_input_file_exits_2(tmp_path, capsys, name, content, argv):
    path = tmp_path / name
    path.write_bytes(content)
    assert main(argv + [str(path)]) == 2
    _assert_io_error_line(capsys.readouterr().err, path)


@pytest.mark.parametrize("loader", [gq.load_body, gq.read_matrix, gq.load_witness,
                                    gq.read_thresholds, gq.read_report])
def test_loaders_refuse_non_ascii_bytes(tmp_path, loader):
    path = tmp_path / "input"
    path.write_bytes(b"0." + _NON_ASCII + b"\n")
    with pytest.raises(gq.IoError) as info:
        loader(path)
    assert info.value.path == str(path)


_SCHEMA = f'"schema": "{gq.REPORT_SCHEMA}"'


@pytest.mark.parametrize("loader,text", [
    (gq.read_report, "[1, 2]"),  # not an object
    (gq.read_report, "{" + _SCHEMA + "}"),  # no fields past the schema
    (gq.read_report, "{" + _SCHEMA + ', "pass": "yes"}'),  # pass must be a bool
    (gq.read_report, "{" + _SCHEMA + ', "pass": true, "suite": 3, "config": {}, "trials": [],'
                     ' "aggregate": {}, "fitted": {}, "artifact_version": "1.0.0"}'),
])
def test_loaders_name_the_file_for_malformed_content(tmp_path, loader, text):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(gq.IoError) as info:
        loader(path)
    assert info.value.path == str(path)


def test_verify_writes_report_and_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "hsbound", "--trials", "3", "--seed", "7",
                 "--format", "json", "--out", str(out),
                 "--thresholds", THRESHOLDS_PATH, "--threads", "1"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["suite"] == "hsbound"
    assert "PASS" in capsys.readouterr().out


def test_verify_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["verify", "lemmaB", "--trials", "3", "--seed", "7",
                 "--format", "csv", "--out", str(out), "--threads", "1"])
    assert code in (0, 1)  # verdict depends on draws; file must exist either way
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3 * 3 + 1


def test_verify_deterministic_across_threads(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "2")):
        out = tmp_path / f"r{i}.json"
        assert main(["verify", "corC", "--trials", "2", "--seed", "5",
                     "--format", "json", "--out", str(out), "--threads", threads]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_defaults_overridden_by_flags(tmp_path, capsys):
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text("trials=2\nformat=json\n# comment\n")
    out = tmp_path / "r.json"
    code = main(["verify", "hsbound", "--seed", "7", "--config", str(cfg),
                 "--out", str(out), "--thresholds", THRESHOLDS_PATH, "--threads", "1"])
    assert code == 0
    assert json.loads(out.read_text())["config"]["trials"] == 2
    # explicit flag beats the config file
    out2 = tmp_path / "r2.json"
    code = main(["verify", "hsbound", "--seed", "7", "--config", str(cfg), "--trials", "4",
                 "--out", str(out2), "--thresholds", THRESHOLDS_PATH, "--threads", "1"])
    assert code == 0
    assert json.loads(out2.read_text())["config"]["trials"] == 4


@pytest.mark.parametrize("flag", [["--trials=4"], ["--tri", "4"], ["--tri=4"]],
                         ids=["equals", "abbreviated", "abbreviated-equals"])
def test_config_file_loses_to_every_flag_spelling(tmp_path, flag):
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text("trials=2\n")
    out = tmp_path / "r.json"
    code = main(["verify", "hsbound", "--seed", "7", "--config", str(cfg), *flag,
                 "--out", str(out), "--thresholds", THRESHOLDS_PATH, "--threads", "1"])
    assert code == 0
    assert json.loads(out.read_text())["config"]["trials"] == 4


@pytest.mark.parametrize("value", ["ture", "on", ""])
def test_config_file_bad_store_true_value_exits_2(body_file, tmp_path, capsys, value):
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(np.eye(3), mpath)
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text(f"dual={value}\n")
    assert main(["snumbers", "--body", str(body_file), "--matrix", str(mpath), "--k", "1",
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"genquot: usage error: config file {cfg}: ")
    assert "'dual'" in err


@pytest.mark.parametrize("value,kind", [("YES", "d"), ("0", "c")])
def test_config_file_store_true_words(body_file, tmp_path, capsys, value, kind):
    mpath = tmp_path / "t.mtx"
    gq.write_matrix(np.eye(3), mpath)
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text(f"dual={value}\n")
    assert main(["snumbers", "--body", str(body_file), "--matrix", str(mpath), "--k", "1",
                 "--config", str(cfg)]) == 0
    assert f"{kind}_1 in [" in capsys.readouterr().out


def test_config_file_positional_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text("suite=lemmaA\n")
    assert main(["verify", "hsbound", "--seed", "7", "--trials", "1", "--threads", "1",
                 "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"genquot: usage error: config file {cfg}: 'suite'")
    assert "suite lemmaA" not in captured.out


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text("bogus=1\n")
    assert main(["verify", "hsbound", "--seed", "7", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text,quoted", [("bogus=1\n", "'bogus'"),
                                         ("trials 2\n", "'trials 2'")],
                         ids=["unknown-key", "no-equals"])
def test_config_file_structure_errors_name_the_file(tmp_path, capsys, text, quoted):
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text(text)
    assert main(["verify", "hsbound", "--seed", "7", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"genquot: usage error: config file {cfg}: ")
    assert quoted in err


@pytest.mark.parametrize("text,argv", [
    ("trials=abc\n", ["verify", "hsbound", "--seed", "7"]),  # int() raises ValueError
    ("stream=zz\n", ["radii", "--body", "b.mtx", "--seed", "7"]),  # ArgumentTypeError
    ("format=xml\n", ["verify", "hsbound", "--seed", "7"]),  # outside choices
], ids=["bad-int", "bad-seed", "bad-choice"])
def test_config_file_bad_value_exits_2(tmp_path, capsys, text, argv):
    cfg = tmp_path / "genquot.cfg"
    cfg.write_text(text)
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    key = text.split("=")[0]
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"genquot: usage error: config file {cfg}: ")
    assert repr(key) in err


def test_calibrate_cli(tmp_path, capsys):
    out = tmp_path / "th.json"
    code = main(["calibrate", "--seed", "9", "--trials", "3", "--out", str(out),
                 "--threads", "1"])
    assert code == 0
    th = json.loads(out.read_text())
    assert "l1_iso_max" in th and "l2_compl_max" in th


def test_threads_env_fallback(monkeypatch, tmp_path):
    from genquot.cli import _default_threads
    monkeypatch.setenv("GENQUOT_THREADS", "3")
    assert _default_threads() == 3
    for bad in ("junk", "0", "-2", "1.5"):
        monkeypatch.setenv("GENQUOT_THREADS", bad)
        with pytest.raises(gq.UsageError, match="GENQUOT_THREADS must be an integer >= 1"):
            _default_threads()


@pytest.mark.parametrize("argv, env, message", [
    (["--samples", "0"], None, "--samples must be >= 1, got 0"),
    ([], "abc", "GENQUOT_THREADS must be an integer >= 1, got 'abc'"),
])
def test_verify_bad_samples_or_threads_env_exits_2(monkeypatch, capsys, argv, env, message):
    if env is not None:
        monkeypatch.setenv("GENQUOT_THREADS", env)
    assert main(["verify", "lemmaA", "--seed", "1", "--trials", "1", *argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    # the config log line, then one message line
    assert len(err) == 2 and err[1] == f"genquot: usage error: {message}"
