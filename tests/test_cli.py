import base64
import json
import math
import os
import re
import stat
import struct
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invmark import errors
from invmark.cli import main
from invmark.pipeline import EXIT_NOT_VERIFIED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE

from conftest import mutated_documents


def test_version_flag(capsys):
    assert main(["--version"]) == 0


def test_usage_error_exit_code():
    assert main(["verify"]) == EXIT_USAGE  # missing required args


def test_mc_null_command(tmp_path, capsys):
    out = str(tmp_path / "null.json")
    rc = main(["mc-null", "--m", "16", "--tau", "17", "--trials", "1000", "--seed", "3", "--out", out])
    assert rc == EXIT_OK
    doc = json.load(open(out))
    assert doc["measured_alpha"] == 0.0
    assert "measured_alpha" in capsys.readouterr().out


def test_reduce_command(tmp_path, capsys):
    infile = tmp_path / "inst.txt"
    infile.write_text("p hs 2 3 1\n0\n1\n0 1\n")
    out = str(tmp_path / "reduced.json")
    rc = main(["reduce", "--infile", str(infile), "--theta-min", "1.0", "--solve", "--out", out])
    assert rc == EXIT_OK
    doc = json.load(open(out))
    assert doc["weights"] == [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    printed = capsys.readouterr().out
    assert "yes=True" in printed
    # the certificate found is re-checked by the polynomial-time verifier
    assert "certificate support=[2] verified=True" in printed


def test_reduce_refuses_oversized_universe_at_once(tmp_path, capsys):
    infile = tmp_path / "huge.txt"
    infile.write_text("p hs 65537 1 1\n0\n")
    out = tmp_path / "reduced.json"
    start = time.perf_counter()
    rc = main(["reduce", "--infile", str(infile), "--solve", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert rc == EXIT_RUNTIME and not out.exists()
    assert err.startswith("error: MalformedLineError: ") and ":1: " in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_reduce_solve_refuses_too_many_sets_before_writing(tmp_path, capsys):
    infile = tmp_path / "wide.txt"
    infile.write_text("p hs 2 21 1\n" + "0 1\n" * 21)
    out = tmp_path / "reduced.json"
    rc = main(["reduce", "--infile", str(infile), "--solve", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_RUNTIME and not out.exists()
    assert captured.err.startswith("error: TooLargeError: ") and captured.err.count("\n") == 1
    assert "written" not in captured.out
    # without --solve the same file only reduces
    assert main(["reduce", "--infile", str(infile), "--out", str(out)]) == EXIT_OK and out.exists()


_header_int = st.one_of(st.integers(-3, 8), st.integers(-(2**40), 2**40))
_set_line = st.lists(st.integers(-2, 9), max_size=5).map(lambda xs: " ".join(map(str, xs)))


@given(
    header=st.tuples(_header_int, _header_int, _header_int),
    lines=st.lists(_set_line, max_size=10),
    solve=st.booleans(),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_reduce_fuzz_exits_cleanly(header, lines, solve, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        infile = os.path.join(tmp, "hs.txt")
        with open(infile, "w") as fh:
            fh.write("\n".join(["p hs {} {} {}".format(*header), *lines]) + "\n")
        out = os.path.join(tmp, "reduced.json")
        rc = main(["reduce", "--infile", infile, "--out", out] + (["--solve"] if solve else []))
        captured = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE)
        assert captured.err.count("error:") <= 1
        if rc == EXIT_RUNTIME:  # a typed error, on one line
            assert re.fullmatch(r"error: [A-Za-z]+Error: [^\n]*\n", captured.err)
        assert "Traceback" not in captured.out + captured.err
        assert os.path.exists(out) == (rc == EXIT_OK)


def test_calibrate_command_paper_compat(tmp_path, capsys):
    out = str(tmp_path / "cal.json")
    rc = main([
        "calibrate", "--m", "128", "--alpha", "1e-6", "--rho0", "7.6e-4",
        "--paper-compat", "--out", out,
    ])
    assert rc == EXIT_OK
    doc = json.load(open(out))
    assert doc["computed"]["tau"] == 99
    assert doc["paper_compat"]["reference"]["tau"] == 94
    assert doc["paper_compat"]["discrepancy"] is True


def test_gen_carriers_keeps_bundle_off_stdout(tmp_path, capsys):
    out = str(tmp_path / "bundle.json")
    rc = main([
        "gen-carriers", "--seed", "1", "--m", "4", "--n-graphs", "60", "--out", out,
    ])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "edges" not in printed
    assert "key_bits" not in printed
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o600  # secret key material
    doc = json.load(open(out))
    assert len(doc["carriers"]) == 4
    assert doc["version"] == 3


def test_pipeline_micro_run_and_determinism(tmp_path):
    out_dir = str(tmp_path / "run1")
    args = [
        "pipeline", "--seed", "5", "--out-dir", out_dir, "--m", "4",
        "--n-graphs", "60", "--alpha", "0.2", "--beta", "2.0", "--epochs", "3",
    ]
    rc = main(args)
    assert rc in (EXIT_OK, EXIT_NOT_VERIFIED)
    for name in ("manifest.json", "bundle.json", "calibration.json", "model.json", "verification.json", "training.json"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    assert manifest["status"] == "ok"
    assert manifest["toolkit_version"]

    # a rerun, and a run through the `embed` alias, give the same artifacts
    for command in ("pipeline", "embed"):
        out_dir2 = str(tmp_path / command)
        rc2 = main([command, "--seed", "5", "--out-dir", out_dir2, "--m", "4",
                    "--n-graphs", "60", "--alpha", "0.2", "--beta", "2.0", "--epochs", "3"])
        assert rc2 == rc
        for name in ("bundle.json", "verification.json", "model.json", "training.json"):
            a = open(os.path.join(out_dir, name), "rb").read()
            b = open(os.path.join(out_dir2, name), "rb").read()
            assert a == b, f"{name} not byte-identical across reruns ({command})"


def test_verify_command_exit_codes(tmp_path):
    out_dir = str(tmp_path / "run")
    rc = main(["pipeline", "--seed", "6", "--out-dir", out_dir, "--m", "4",
               "--n-graphs", "60", "--alpha", "0.2", "--beta", "4.0", "--epochs", "4"])
    assert rc in (EXIT_OK, EXIT_NOT_VERIFIED)
    bundle_path = os.path.join(out_dir, "bundle.json")
    ckpt = os.path.join(out_dir, "model.json")
    rc_verify = main(["verify", "--bundle", bundle_path, "--checkpoint", ckpt, "--alpha", "0.2"])
    assert rc_verify == rc  # same decision as the pipeline's own verify stage


def _beta_fn(doc: dict, rho0: float) -> float:
    """exp(-2 (1 - c) m (kappa - gamma)^2) from an attack report's own numbers."""
    m = len(doc["verification"]["decoded_bits"])
    kappa, gamma = doc["owner_kappa"], doc["drift_gamma"]
    if gamma >= kappa:
        return 1.0
    return math.exp(-2.0 * (1.0 - min(4.0 * rho0, 0.5)) * m * (kappa - gamma) ** 2)


def test_attack_command(tmp_path):
    out_dir = str(tmp_path / "run")
    main(["pipeline", "--seed", "7", "--out-dir", out_dir, "--m", "4",
          "--n-graphs", "60", "--alpha", "0.2", "--beta", "2.0", "--epochs", "2"])
    report = str(tmp_path / "attack.json")
    rc = main([
        "attack", "--kind", "QUANTIZE:8", "--bundle", os.path.join(out_dir, "bundle.json"),
        "--checkpoint", os.path.join(out_dir, "model.json"), "--alpha", "0.2",
        "--n-graphs", "60", "--seed", "7", "--out", report,
    ])
    assert rc == EXIT_OK
    doc = json.load(open(report))
    assert doc["spec"]["kind"] == "QUANTIZE"
    assert 0.0 <= doc["drift_gamma"] <= 1.0
    assert "verification" in doc and "budget" not in doc
    # no --calibration, so the command estimates rho0 as the pipeline did
    rho0 = json.load(open(os.path.join(out_dir, "calibration.json")))["inputs"]["rho0"]
    assert doc["beta_fn_bound"] == pytest.approx(_beta_fn(doc, rho0), rel=1e-12)


def test_pipeline_and_calibrate_write_one_calibration_document(tmp_path):
    out_dir = tmp_path / "run"
    rc = main(["pipeline", "--seed", "7", "--out-dir", str(out_dir), "--m", "16", "--n-graphs", "120",
               "--alpha", "0.05", "--epochs", "2"])
    assert rc in (EXIT_OK, EXIT_NOT_VERIFIED)
    cal = tmp_path / "calibration.json"
    assert main(["calibrate", "--bundle", str(out_dir / "bundle.json"), "--alpha", "0.05", "--out", str(cal)]) == EXIT_OK
    assert cal.read_bytes() == (out_dir / "calibration.json").read_bytes()


def test_pipeline_attack_reports_carry_the_false_negative_bound(tmp_path):
    out_dir = str(tmp_path / "run")
    main(["pipeline", "--seed", "7", "--out-dir", out_dir, "--m", "4", "--n-graphs", "60",
          "--alpha", "0.2", "--beta", "2.0", "--epochs", "2", "--attacks", "PRUNE:0.5,QUANTIZE:8,PRUNE:1.0"])
    rho0 = json.load(open(os.path.join(out_dir, "calibration.json")))["inputs"]["rho0"]
    owner_kappa = json.load(open(os.path.join(out_dir, "verification.json")))["kappa"]
    docs = [json.load(open(os.path.join(out_dir, f"attack_{i}_{kind}.json")))
            for i, kind in enumerate(("prune", "quantize", "prune"))]
    for doc in docs:
        assert "budget" not in doc
        assert doc["owner_kappa"] == owner_kappa
        assert doc["beta_fn_bound"] == pytest.approx(_beta_fn(doc, rho0), rel=1e-12)
    assert docs[1]["beta_fn_bound"] < 1.0
    # pruning every weight leaves every score at 1/2, a drift of at least kappa
    assert docs[2]["drift_gamma"] >= owner_kappa and docs[2]["beta_fn_bound"] == 1.0


def test_pipeline_rejects_zero_epochs(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    rc = main(["pipeline", "--seed", "5", "--out-dir", out_dir, "--m", "4",
               "--n-graphs", "60", "--alpha", "0.2", "--epochs", "0"])
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: ValueError: epochs must be >= 1\n"
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    assert manifest["status"] == "failed"
    assert manifest["stages"]["embed"] == {"error": "ValueError: epochs must be >= 1"}
    assert "carriers" not in manifest["stages"]  # rejected before any keygen work
    assert not os.path.exists(os.path.join(out_dir, "bundle.json"))
    assert not os.path.exists(os.path.join(out_dir, "model.json"))


@pytest.mark.parametrize(
    "token, message",
    [("QUANTIZE:3", "bits must be 4 or 8"), ("FINETUNE:0", "ft_epochs must be >= 1")],
)
def test_pipeline_rejects_a_bad_attack_token_before_keygen(tmp_path, capsys, token, message):
    out_dir = str(tmp_path / "run")
    rc = main(["pipeline", "--seed", "5", "--out-dir", out_dir, "--m", "4",
               "--n-graphs", "60", "--alpha", "0.2", "--epochs", "1", "--attacks", f"PRUNE:0.5,{token}"])
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    assert manifest["status"] == "failed"
    assert manifest["stages"] == {"attacks": {"error": f"ValueError: {message}"}}
    assert not os.path.exists(os.path.join(out_dir, "bundle.json"))


def test_pipeline_failure_prints_one_error_line(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    rc = main(["pipeline", "--seed", "1", "--m", "0", "--n-graphs", "60", "--out-dir", out_dir])
    printed = capsys.readouterr()
    assert rc == EXIT_RUNTIME and printed.out == ""
    assert printed.err == "error: InsufficientCarriersError: m must be >= 1\n"
    manifest = json.load(open(os.path.join(out_dir, "manifest.json")))
    assert manifest["status"] == "failed"
    assert manifest["stages"]["carriers"] == {"error": "InsufficientCarriersError: m must be >= 1"}


@pytest.mark.parametrize(
    "argv",
    [["gen-carriers", "--seed", "1", "--m", "0", "--n-graphs", "60"], ["calibrate", "--m", "0", "--rho0", "0"]],
)
def test_zero_carriers_is_a_typed_error(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    rc = main([*argv, "--out", str(out)])
    assert rc == EXIT_RUNTIME and not out.exists()
    assert capsys.readouterr().err == "error: InsufficientCarriersError: m must be >= 1\n"


# --- malformed bundles, checkpoints and calibration reports ---------------------------


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("run"))
    main(["pipeline", "--seed", "6", "--out-dir", out_dir, "--m", "4",
          "--n-graphs", "60", "--alpha", "0.2", "--beta", "2.0", "--epochs", "1"])
    return out_dir


def _drop_norm_constants(doc):
    del doc["norm_constants"]


def _target_out_of_range(doc):
    doc["targets"][0], doc["key_bits"][0] = 2.0, 1


def _target_nan(doc):
    doc["targets"][0] = float("nan")


def _carrier_size_as_text(doc):
    doc["carriers"][0]["n"] = "12"


def _edge_out_of_range(doc):
    doc["carriers"][0]["edges"][0] = [0, 999]


def _carrier_above_size_cap(doc):
    doc["carriers"][0]["n"] = int(doc["size_cap"]) + 1


def _no_carriers(doc):
    doc["carriers"], doc["targets"], doc["key_bits"] = [], [], []


def _empty_params(doc):
    doc["params"] = []


def _wrong_shape(doc):
    doc["params"][0]["shape"] = [1, doc["params"][0]["shape"][0]]


def _hyper_missing_field(doc):
    del doc["hyper"]["hidden_dim"]


def _values_as_text(doc):
    doc["params"][0]["values"] = "0.5"  # text that is not base64


def _repack(doc, edit):
    """Apply ``edit`` to the bytes packed in the first parameter's values."""
    rec = doc["params"][0]
    rec["values"] = base64.b64encode(edit(base64.b64decode(rec["values"]))).decode()


def _values_one_float_short(doc):
    _repack(doc, lambda raw: raw[:-8])


def _values_packed_nan(doc):
    _repack(doc, lambda raw: struct.pack("<d", math.nan) + raw[8:])


def _values_packed_inf(doc):
    _repack(doc, lambda raw: struct.pack("<d", math.inf) + raw[8:])


def _drop_rho0(doc):
    del doc["inputs"]["rho0"]


def _rho0_as_text(doc):
    doc["inputs"]["rho0"] = "x"


@pytest.mark.parametrize(
    "target, mutate",
    [
        ("bundle.json", _drop_norm_constants),
        ("bundle.json", _target_out_of_range),
        ("bundle.json", _target_nan),
        ("bundle.json", _carrier_size_as_text),
        ("bundle.json", _edge_out_of_range),
        ("bundle.json", _carrier_above_size_cap),
        ("bundle.json", _no_carriers),
        ("model.json", _empty_params),
        ("model.json", _wrong_shape),
        ("model.json", _hyper_missing_field),
        ("model.json", _values_as_text),
        ("model.json", _values_one_float_short),
        ("model.json", _values_packed_nan),
        ("model.json", _values_packed_inf),
        ("calibration.json", _drop_rho0),
        ("calibration.json", _rho0_as_text),
    ],
)
def test_verify_rejects_malformed_documents_with_one_line(run_dir, tmp_path, capsys, target, mutate):
    paths = {name: os.path.join(run_dir, name) for name in ("bundle.json", "model.json", "calibration.json")}
    doc = json.load(open(paths[target]))
    mutate(doc)
    paths[target] = str(tmp_path / target)
    with open(paths[target], "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main(["verify", "--bundle", paths["bundle.json"], "--checkpoint", paths["model.json"],
               "--calibration", paths["calibration.json"]])
    err = capsys.readouterr().err
    assert rc == EXIT_RUNTIME
    assert err.startswith("error: MalformedDocumentError: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "999" not in err  # no carrier edge is echoed


def _verify_error(paths, capsys, *extra):
    capsys.readouterr()
    rc = main(["verify", "--bundle", paths["bundle.json"], "--checkpoint", paths["model.json"], *extra])
    err = capsys.readouterr().err
    assert rc == EXIT_RUNTIME
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_verify_rejects_oversized_bundle_at_once(run_dir, tmp_path, capsys):
    # A 5,000-node path carrier with a matching size cap: both come from the
    # file, so only the fixed ceiling stops it before any graph is hashed.
    doc = json.load(open(os.path.join(run_dir, "bundle.json")))
    doc["carriers"][0] = {"n": 5000, "edges": [[i, i + 1] for i in range(4999)]}
    doc["size_cap"] = 5000.0
    paths = {"bundle.json": str(tmp_path / "bundle.json"), "model.json": os.path.join(run_dir, "model.json")}
    with open(paths["bundle.json"], "w") as fh:
        json.dump(doc, fh)
    start = time.perf_counter()
    err = _verify_error(paths, capsys, "--alpha", "0.2")
    assert time.perf_counter() - start < 1.0
    assert err.startswith("error: MalformedDocumentError: ") and "ceiling" in err


def test_verify_refuses_a_version_2_bundle(run_dir, tmp_path, capsys):
    # A version-2 bundle recorded every protocol setting and a `frozen` flag;
    # it is refused by its version alone, not by its fields.
    doc = json.load(open(os.path.join(run_dir, "bundle.json")))
    doc["version"] = 2
    doc["params"] = {"swap_start": 5, "swap_increment": 5, "swap_cap": 50, "ks_delta": 0.1,
                     "size_percentile": 25.0, "target_margin": 0.15, "rng_seed": 6}
    doc["norm_constants"]["frozen"] = True
    paths = {"bundle.json": str(tmp_path / "bundle.json"), "model.json": os.path.join(run_dir, "model.json")}
    with open(paths["bundle.json"], "w") as fh:
        json.dump(doc, fh)
    assert _verify_error(paths, capsys, "--alpha", "0.2") == "error: MalformedDocumentError: unsupported bundle version 2\n"


def test_verify_refuses_a_version_1_checkpoint(run_dir, tmp_path, capsys):
    # A version-1 checkpoint listed each parameter's values as JSON numbers;
    # it is refused by its version alone, not by its fields.
    doc = json.load(open(os.path.join(run_dir, "model.json")))
    doc["version"] = 1
    for rec in doc["params"]:
        raw = base64.b64decode(rec["values"])
        rec["values"] = list(struct.unpack(f"<{len(raw) // 8}d", raw))
    paths = {"bundle.json": os.path.join(run_dir, "bundle.json"), "model.json": str(tmp_path / "model.json")}
    with open(paths["model.json"], "w") as fh:
        json.dump(doc, fh)
    assert _verify_error(paths, capsys, "--alpha", "0.2") == "error: MalformedDocumentError: unsupported checkpoint version 1\n"


def _run_document(run_dir, name: str) -> dict:
    return json.load(open(os.path.join(run_dir, name)))


def test_verify_refuses_a_version_2_checkpoint(run_dir, tmp_path, capsys):
    # A version-2 checkpoint recorded GIN's epsilon under `hyper`; it is
    # refused by its version alone, not by its fields.
    doc = _run_document(run_dir, "model.json")
    doc["version"] = 2
    doc["hyper"]["gin_eps"] = 0.0
    paths = {"bundle.json": os.path.join(run_dir, "bundle.json"), "model.json": str(tmp_path / "model.json")}
    with open(paths["model.json"], "w") as fh:
        json.dump(doc, fh)
    err = _verify_error(paths, capsys, "--alpha", "0.2")
    assert err == "error: MalformedDocumentError: unsupported checkpoint version 2\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha", 5.0, "alpha must be in (0, 1)"),
        ("alpha", 0.0, "alpha must be in (0, 1)"),
        ("rho0", -1.0, "rho0 must be >= 0"),
    ],
)
def test_verify_refuses_calibration_inputs_out_of_range(run_dir, tmp_path, capsys, field, value, message):
    doc = _run_document(run_dir, "calibration.json")
    doc["inputs"][field] = value
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(doc))
    paths = {name: os.path.join(run_dir, name) for name in ("bundle.json", "model.json")}
    err = _verify_error(paths, capsys, "--calibration", str(cal))
    assert err == f"error: MalformedDocumentError: calibration.inputs.{message}\n"


_TYPED_ERROR_LINE = re.compile(r"error: (\w+): [^\n]*\n")


def _verify_mutated(run_dir, capsys, name: str, doc):
    """Run `verify` over the run's documents with ``doc`` in place of ``name``.

    A document the reader takes gives a decision and no error; any other
    gives exit 1 and exactly one error line, naming an InvmarkError.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: os.path.join(run_dir, n) for n in ("bundle.json", "model.json", "calibration.json")}
        paths[name] = os.path.join(tmp, name)
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(["verify", "--bundle", paths["bundle.json"], "--checkpoint", paths["model.json"],
                   "--calibration", paths["calibration.json"]])
    captured = capsys.readouterr()
    if rc in (EXIT_OK, EXIT_NOT_VERIFIED):
        assert captured.err == ""
        return
    assert rc == EXIT_RUNTIME
    line = _TYPED_ERROR_LINE.fullmatch(captured.err)
    assert line is not None, captured.err
    assert issubclass(getattr(errors, line.group(1), type(None)), errors.InvmarkError), captured.err


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_fuzzed_calibration_gives_a_decision_or_one_typed_error(run_dir, capsys, data):
    documents = st.just(_run_document(run_dir, "calibration.json"))
    doc = data.draw(mutated_documents(documents, hot=lambda path: path[:1] == ("inputs",)))
    _verify_mutated(run_dir, capsys, "calibration.json", doc)


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_fuzzed_bundle_gives_a_decision_or_one_typed_error(run_dir, capsys, data):
    documents = st.just(_run_document(run_dir, "bundle.json"))
    doc = data.draw(mutated_documents(documents, hot=lambda path: "edges" not in path))
    _verify_mutated(run_dir, capsys, "bundle.json", doc)


@pytest.mark.parametrize(
    "command, content, error",
    [
        pytest.param("verify", b'{"version": 3,', "MalformedDocumentError", id="bundle-not-json"),
        pytest.param("verify", b"\xff\xfe", "MalformedDocumentError", id="bundle-not-utf8"),
        pytest.param("verify", b"[" * 100_000, "MalformedDocumentError", id="bundle-nested-too-deep"),
        pytest.param("gen-carriers", b"1\n\xff\n", "MalformedLineError", id="tu-labels-not-utf8"),
        pytest.param("reduce", b"p hs 2 1 1\n0 \xff\n", "MalformedLineError", id="reduce-infile-not-utf8"),
    ],
)
def test_unreadable_files_give_one_typed_error(tmp_path, capsys, command, content, error):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    out = str(tmp_path / "out.json")
    if command == "verify":
        argv = ["verify", "--bundle", str(path), "--checkpoint", str(tmp_path / "model.json")]
    elif command == "gen-carriers":
        for name, text in [("A", "1, 2\n"), ("graph_indicator", "1\n1\n")]:
            (tmp_path / f"TOY_{name}.txt").write_text(text)
        path.rename(tmp_path / "TOY_graph_labels.txt")
        argv = ["gen-carriers", "--seed", "1", "--m", "4", "--tu-dir", str(tmp_path), "--out", out]
    else:
        argv = ["reduce", "--infile", str(path), "--out", out]
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    line = _TYPED_ERROR_LINE.fullmatch(err)
    assert line is not None and line.group(1) == error, err
    assert issubclass(getattr(errors, error), errors.InvmarkError)
    assert not os.path.exists(out)


def test_verify_rejects_calibration_for_another_m(run_dir, tmp_path, capsys):
    cal = str(tmp_path / "cal_m8.json")
    assert main(["calibrate", "--m", "8", "--alpha", "0.2", "--rho0", "0", "--out", cal]) == EXIT_OK
    paths = {name: os.path.join(run_dir, name) for name in ("bundle.json", "model.json")}
    err = _verify_error(paths, capsys, "--calibration", cal)
    assert err.startswith("error: SizeMismatchError: ") and "m=8" in err and "m=4" in err


def test_calibrate_takes_m_from_the_bundle(run_dir, tmp_path, capsys):
    bundle = os.path.join(run_dir, "bundle.json")
    cal = str(tmp_path / "cal.json")
    assert main(["calibrate", "--bundle", bundle, "--alpha", "0.2", "--out", cal]) == EXIT_OK
    assert json.load(open(cal))["inputs"]["m"] == 4
    assert main(["calibrate", "--bundle", bundle, "--m", "4", "--alpha", "0.2", "--out", cal]) == EXIT_OK
    capsys.readouterr()
    assert main(["calibrate", "--bundle", bundle, "--m", "8", "--alpha", "0.2", "--out", cal]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: SizeMismatchError: ") and "m=4" in err
