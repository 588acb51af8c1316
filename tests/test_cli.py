"""Command line surface: exit codes, output routing, config override."""

import io
import json
import os
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sacpdp.pdp
from conftest import EHEALTH, write_gateway_conf
from sacpdp.cli import main
from sacpdp.ontology import WILDCARD_ID, ConceptRef
from sacpdp.policy import EMPTY, AccessRule, Atom, Op, PolicyDocument
from sacpdp.xmlio import XacmlRequestDoc, serialize_policy, serialize_xacml_request

REQ = EHEALTH / "requests"


def tie_bundle(tmp_path):
    """Bundle whose policy has two opposing rules at one priority.

    The stock demo policy never produces a same-priority conflict, so a
    corrupted combining order would go unnoticed there.  This one forces
    the Deny-beats-Permit choice on every request.
    """
    def blanket(name, condition):
        return AccessRule(
            name=name,
            subject=ConceptRef("SO", WILDCARD_ID),
            object=ConceptRef("OO", WILDCARD_ID),
            action=ConceptRef("AO", WILDCARD_ID),
            condition=condition,
            public=True,
            priority=5,
        )

    policy = PolicyDocument(rules=(
        blanket("allow_all", EMPTY),
        blanket("needs_consent", Atom("consent", Op.EQUALS, "given")),
    ))
    (tmp_path / "policy.xml").write_text(serialize_policy(policy), encoding="utf-8")
    requests_dir = tmp_path / "requests"
    requests_dir.mkdir()
    refusal = XacmlRequestDoc(
        subject_id="joan",
        subject_attributes=(),
        resource_id="records/jen",
        action_id="read",
        purpose_id="treat",
        environment={"consent": "refused"},
    )
    (requests_dir / "tie_refusal.xml").write_text(
        serialize_xacml_request(refusal), encoding="utf-8"
    )
    conf = tmp_path / "bundle.conf"
    lines = [
        f"{key} = {EHEALTH / name}"
        for key, name in [
            ("so", "ehealth_so.xml"),
            ("oo", "ehealth_oo.xml"),
            ("ao", "ehealth_ao.xml"),
            ("ato", "ehealth_ato.xml"),
            ("purposes", "ehealth_purposes.xml"),
            ("registry", "ehealth_registry.xml"),
        ]
    ]
    lines += [
        f"policy = {tmp_path / 'policy.xml'}",
        "trusted_soas = hospital_ADMIN",
        f"requests = {requests_dir}",
    ]
    conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return conf


def broken_bundle(tmp_path):
    """Config whose attribute ontology slot points at the subject document."""
    conf = tmp_path / "bundle.conf"
    lines = []
    for key, name in [
        ("so", "ehealth_so.xml"),
        ("oo", "ehealth_oo.xml"),
        ("ao", "ehealth_ao.xml"),
        ("ato", "ehealth_so.xml"),
        ("purposes", "ehealth_purposes.xml"),
        ("policy", "ehealth_policy.xml"),
        ("registry", "ehealth_registry.xml"),
    ]:
        lines.append(f"{key} = {EHEALTH / name}")
    lines.append("trusted_soas = hospital_ADMIN")
    conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return conf


# a well-formed document but for one byte that is not UTF-8
NOT_UTF8 = b'<?xml version="1.0" encoding="UTF-8"?>\n<purposes>\xff</purposes>\n'


def not_utf8_bundle(tmp_path):
    """The e-health bundle with its purpose tree replaced by NOT_UTF8."""
    bundle = tmp_path / "bundle"
    shutil.copytree(EHEALTH, bundle)
    (bundle / "ehealth_purposes.xml").write_bytes(NOT_UTF8)
    return bundle


class TestValidate:
    def test_clean_bundle(self, capsys):
        assert main(["validate", str(EHEALTH)]) == 0
        assert capsys.readouterr().out == "ok: 4 rule(s) active\n"

    def test_findings_reported(self, tmp_path, capsys):
        assert main(["validate", str(broken_bundle(tmp_path))]) == 1
        out = capsys.readouterr().out
        assert "declared kind SO" in out

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.conf")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_env_var_overrides_argument(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SACPDP_CONFIG", str(EHEALTH))
        assert main(["validate", str(tmp_path / "nope.conf")]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_document_not_utf8_is_a_finding(self, tmp_path, capsys):
        assert main(["validate", str(not_utf8_bundle(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("ehealth_purposes.xml: not valid UTF-8: ")
        assert "Traceback" not in captured.out + captured.err

    def test_config_not_utf8(self, tmp_path, capsys):
        conf = tmp_path / "bundle.conf"
        conf.write_bytes(b"so = \xff\n")
        assert main(["validate", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read config {conf}: ")
        assert "Traceback" not in captured.out + captured.err


class TestDecide:
    @pytest.mark.parametrize(
        "stem,token,code",
        [
            ("01_doctor_reads_record", "Permit", 0),
            ("02_too_few_years", "Deny", 3),
            ("03_years_missing", "Indeterminate", 5),
            ("04_unknown_subject", "NotApplicable", 4),
        ],
    )
    def test_exit_codes(self, stem, token, code, capsys):
        assert main(["decide", str(EHEALTH), str(REQ / f"{stem}.xml")]) == code
        out = capsys.readouterr().out
        assert out.splitlines()[0] == token

    def test_explain_permit(self, capsys):
        main(["decide", str(EHEALTH), str(REQ / "01_doctor_reads_record.xml"), "--explain"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Permit"
        assert "Read_patient_records" in out

    def test_explain_respects_masking(self, capsys):
        code = main(["decide", str(EHEALTH), str(REQ / "02_too_few_years.xml"), "--explain"])
        assert code == 3
        out = capsys.readouterr().out
        assert out.splitlines() == ["Deny", "access denied"]

    def test_request_from_stdin(self, monkeypatch, capsys):
        text = (REQ / "01_doctor_reads_record.xml").read_text(encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["decide", str(EHEALTH), "-"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "Permit"

    def test_malformed_request(self, tmp_path, capsys):
        bad = tmp_path / "req.xml"
        bad.write_text("<request><subject", encoding="utf-8")
        assert main(["decide", str(EHEALTH), str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_request_not_utf8(self, source, tmp_path, monkeypatch, capsys):
        text = b'<request><subject id="jo\xffan"/></request>'
        path = tmp_path / "req.xml"
        path.write_bytes(text)
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text), encoding="utf-8"))
        assert main(["decide", str(EHEALTH), "-" if source == "stdin" else str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not valid UTF-8: ")
        assert "Traceback" not in captured.err

    def test_unknown_purpose_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "req.xml"
        bad.write_text(
            '<request><subject id="joan"/><resource id="records/jen"/>'
            '<action id="read"/><purpose id="bake"/><environment/></request>',
            encoding="utf-8",
        )
        assert main(["decide", str(EHEALTH), str(bad)]) == 2


class TestOracle:
    def test_agreement(self, capsys):
        assert main(["oracle", str(EHEALTH), "--random", "50", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "seed 7" in out
        assert "checked 58 request(s): 8 canned, 50 randomized" in out
        assert "engine and oracle agree" in out

    def test_canned_only(self, capsys):
        assert main(["oracle", str(EHEALTH), "--random", "0", "--seed", "1"]) == 0
        assert "checked 8 request(s): 8 canned, 0 randomized" in capsys.readouterr().out

    def test_seed_is_always_reported(self, capsys):
        assert main(["oracle", str(EHEALTH), "--random", "5"]) == 0
        assert capsys.readouterr().out.startswith("seed ")

    def test_tie_bundle_agrees_unmutated(self, tmp_path, capsys):
        assert main(["oracle", str(tie_bundle(tmp_path)), "--random", "0", "--seed", "1"]) == 0
        assert "engine and oracle agree" in capsys.readouterr().out

    def test_detects_combining_mutation(self, tmp_path, monkeypatch, capsys):
        # flip the conflict precedence in the engine only; the reference
        # model keeps its own ranking, so the differential must notice
        flipped = tuple(reversed(sacpdp.pdp._COMBINE_PRECEDENCE))
        monkeypatch.setattr(sacpdp.pdp, "_COMBINE_PRECEDENCE", flipped)
        code = main(["oracle", str(tie_bundle(tmp_path)), "--random", "0", "--seed", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "MISMATCH tie_refusal.xml" in out
        assert "1 mismatch(es)" in out

    def test_bad_config(self, tmp_path, capsys):
        assert main(["oracle", str(tmp_path / "nope.conf")]) == 2


class TestServe:
    def test_bad_config(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope.conf")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_document_not_utf8(self, tmp_path, capsys):
        conf = write_gateway_conf(tmp_path, upstream_port=9, bundle_dir=not_utf8_bundle(tmp_path))
        assert main(["serve", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ehealth_purposes.xml: not valid UTF-8: ")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "audit.jsonl").exists()

    def test_audit_log_that_cannot_be_opened(self, tmp_path, capsys):
        # the log's directory would be a regular file
        conf = write_gateway_conf(tmp_path, upstream_port=9)
        conf.write_text(re.sub(r"audit_log = .*", f"audit_log = {conf}/audit.jsonl", conf.read_text()))
        assert main(["serve", str(conf)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_listen_port_in_use(self, tmp_path, capsys):
        with socket.create_server(("127.0.0.1", 0)) as holder:
            port = holder.getsockname()[1]
            conf = write_gateway_conf(tmp_path, upstream_port=9)
            conf.write_text(conf.read_text().replace("127.0.0.1:0", f"127.0.0.1:{port}"))
            assert main(["serve", str(conf)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot listen on 127.0.0.1:{port}: " in err
        assert "Traceback" not in err
        assert "listening on" not in err

    def test_reports_the_bound_port(self, tmp_path):
        # with listen = 127.0.0.1:0 the first stderr line names the port the
        # system chose, and that port answers
        conf = write_gateway_conf(tmp_path, upstream_port=9)
        src = Path(sacpdp.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        gateway = subprocess.Popen(
            [sys.executable, "-m", "sacpdp.cli", "serve", str(conf)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            ready, _, _ = select.select([gateway.stderr], [], [], 20)
            assert ready, "no stderr line within 20 s"
            line = gateway.stderr.readline().decode()
            match = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+), upstream http://127\.0\.0\.1:9\n", line)
            assert match, line
            port = int(match.group(1))
            assert port != 0
            with socket.create_connection(("127.0.0.1", port), timeout=5) as client, client.makefile("rb") as reader:
                client.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert reader.readline().startswith(b"HTTP/1.1 200 ")
            gateway.send_signal(signal.SIGTERM)
            code = gateway.wait(timeout=5)
        finally:
            if gateway.poll() is None:
                gateway.kill()
                gateway.wait()
            stderr = gateway.stderr.read()
            gateway.stderr.close()
        assert code == 0, stderr

    def test_sigterm_stops_cleanly(self, tmp_path):
        # SIGTERM ends the gateway as Ctrl-C does: exit code 0, audit log whole
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        conf = write_gateway_conf(tmp_path, upstream_port=9)
        conf.write_text(conf.read_text().replace("127.0.0.1:0", f"127.0.0.1:{port}"))
        src = Path(sacpdp.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        gateway = subprocess.Popen(
            [sys.executable, "-m", "sacpdp.cli", "serve", str(conf)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
        request = f"POST /pdp/decide HTTP/1.1\r\nConnection: close\r\nContent-Length: {len(body)}\r\n\r\n"
        try:
            deadline = time.monotonic() + 20
            while True:
                assert gateway.poll() is None and time.monotonic() < deadline
                try:
                    client = socket.create_connection(("127.0.0.1", port), timeout=5)
                    break
                except OSError:
                    time.sleep(0.02)
            with client, client.makefile("rb") as reader:
                client.sendall(b"GET /healthz HTTP/1.1\r\n\r\n" + request.encode() + body)
                reply = reader.read()  # the gateway closes after the decide
            assert reply.count(b"HTTP/1.1 200 ") == 2
            gateway.send_signal(signal.SIGTERM)
            code = gateway.wait(timeout=5)
        finally:
            if gateway.poll() is None:
                gateway.kill()
                gateway.wait()
            stderr = gateway.stderr.read()
            gateway.stderr.close()
        assert code == 0, stderr
        lines = (tmp_path / "audit.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["decision"] for line in lines] == ["Permit"]


class TestImports:
    """The package resolves its public names on first use, so the gateway's
    command line imports neither the oracle nor the request generator."""

    @staticmethod
    def run_python(code: str) -> str:
        src = Path(sacpdp.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_cli_imports_neither_oracle_nor_gen(self):
        out = self.run_python(
            "import sys, sacpdp.cli\n"
            "print(sorted(name for name in ('sacpdp.oracle', 'sacpdp.gen') if name in sys.modules))\n"
        )
        assert out == "[]\n"

    def test_every_public_name_imports(self):
        out = self.run_python(
            "import sacpdp\n"
            "from sacpdp import oracle_decide\n"
            "from sacpdp import *\n"
            "names = sacpdp.__all__\n"
            "assert all(globals()[name] is getattr(sacpdp, name) for name in names)\n"
            "assert set(names) <= set(dir(sacpdp))\n"
            "assert oracle_decide.__module__ == 'sacpdp.oracle'\n"
            "print(len(names))\n"
        )
        assert int(out) == len(sacpdp.__all__) > 50

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            sacpdp.no_such_name  # noqa: B018
