"""One table of trace corruptions, each read back by ``read_trace``, ``analyze`` and ``sweep`` resume.

Each row of ``TRACE_EDITS`` edits the bytes of one fresh trace, the seed-1 C3 cell (po 0.5,
delay 1) of a two-seed sweep of ``TINY``, and gives a verdict:

- ``harmless``: ``json.loads`` still reads each edited line as a step line, so every reader
  accepts the trace (no step value is read);
- ``foreign``: another run's header, which ``read_trace`` accepts (it checks no run key);
- ``damaged``: anything else.
"""

import json
import math
import re

import pytest
from helpers import DEEP, LONG_INT, TINY, batch_cell_ids, record_calls

from compound_uq import rollout
from compound_uq.cli import main
from compound_uq.errors import InputError
from compound_uq.rollout import read_trace

HARMLESS, FOREIGN, DAMAGED = "harmless", "foreign", "damaged"
CELL = "po0.5_delay1_shift-none_seed1"
TRACE = f"trace_{CELL}.jsonl"
HEADER, STEP, FOOTER = 0, 1, -1  # the lines a row edits: the header, the first step line and the footer


@pytest.fixture(scope="module")
def two_seed_tree(tmp_path_factory):
    """A swept 8-cell tree of TINY over seeds 0 and 1: config path and fresh trace bytes."""
    root = tmp_path_factory.mktemp("two_seeds")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY, grid=dict(TINY["grid"], seeds=[0, 1]), output_dir=str(root))))
    assert main(["calibrate", "--config", str(cfg_path)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(root / "sweep")]) == 0
    return str(cfg_path), {p.name: p.read_bytes() for p in sorted((root / "sweep").glob("trace_*.jsonl"))}


def _line(at: int, edit):
    """The edit of a trace's bytes that puts ``edit(line)`` in place of line ``at`` (without its newline)."""

    def apply(trace: bytes) -> bytes:
        lines = trace.splitlines(keepends=True)
        lines[at] = edit(lines[at].rstrip(b"\n")) + b"\n"
        return b"".join(lines)

    return apply


def _set(at: int, key: str, value):
    """The edit that decodes line ``at``, sets its ``key`` to ``value`` and encodes it again by
    ``json.dumps``. A key "condition.x" is x in the condition."""

    def edit(line: bytes) -> bytes:
        doc = json.loads(line)
        section, _, inner = key.rpartition(".")
        (doc[section] if section else doc)[inner] = value
        return json.dumps(doc).encode()

    return _line(at, edit)


def _step_value(key: str, token: bytes):
    """The edit of the first step line that writes ``token`` as the text of its value of ``key``."""
    return _line(STEP, lambda line: re.sub(b'"%s": [^,}]+' % key.encode(), b'"%s": %s' % (key.encode(), token), line))


def _cut_steps(trace: bytes) -> bytes:
    lines = trace.splitlines(keepends=True)
    return b"".join([lines[0], *lines[6:]])  # five step lines cut out


# (name, edit of the fresh trace's bytes, verdict, and for a damaged row the start of what the
# error says after "trace file <path> ")
TRACE_EDITS = [
    # step lines, against json.loads
    ("step reward 1e400", _step_value("reward", b"1e400"), HARMLESS, None),
    ("step reward -0.0", _step_value("reward", b"-0.0"), HARMLESS, None),
    ("step reward of 17 digits", _step_value("reward", b"0.12345678901234567"), HARMLESS, None),
    ("step reward NaN", _step_value("reward", b"NaN"), HARMLESS, None),
    ("step reward -Infinity", _step_value("reward", b"-Infinity"), HARMLESS, None),
    ("step kind twice, step last", _line(STEP, lambda line: b'{"kind": "header", ' + line[1:]), HARMLESS, None),
    ("step leading space", _line(STEP, lambda line: b" " + line), HARMLESS, None),
    ("step trailing spaces and a tab", _line(STEP, lambda line: line + b"  \t"), HARMLESS, None),
    ("step carriage return before the newline", _line(STEP, lambda line: line + b"\r"), HARMLESS, None),  # read as CRLF
    ("step reward of 5000 digits", _step_value("reward", b"7" * 5000), DAMAGED, "is not valid JSON: Exceeds the limit"),
    ("step t of 5000 digits", _step_value("t", LONG_INT.encode()), DAMAGED, "is not valid JSON: Exceeds the limit"),
    ("step trailing text", _line(STEP, lambda line: line + b" x"), DAMAGED, "is not valid JSON: Extra data"),
    ("step cut mid-number", _line(STEP, lambda line: line[: line.index(b'"reward": ')] + b'"reward": 0.'), DAMAGED, "is not valid JSON: Expecting"),
    ("step reward 1.", _step_value("reward", b"1."), DAMAGED, "is not valid JSON: Expecting"),
    ("step reward .5", _step_value("reward", b".5"), DAMAGED, "is not valid JSON: Expecting value"),
    ("step not JSON", _line(STEP, lambda line: b"{not json"), DAMAGED, "is not valid JSON: Expecting property name"),
    ("step byte order mark", _line(STEP, lambda line: "\ufeff".encode() + line), DAMAGED, "is not valid JSON: Expecting value"),
    ("step leading form feed", _line(STEP, lambda line: b"\x0c" + line), DAMAGED, "is not valid JSON: Expecting value"),  # not JSON whitespace
    ("step nested too deep", _line(STEP, lambda line: DEEP.encode()), DAMAGED, "is not valid JSON: maximum recursion depth exceeded"),
    ("step non-UTF-8 byte", _line(STEP, lambda line: line.replace(b'"kind": "step"', b'"kind": "st\xffep"')), DAMAGED, "cannot be read"),
    ("step bare array", _line(STEP, lambda line: b"[" + line + b"]"), DAMAGED, "does not hold its footer's 60 step lines"),
    ("step kind twice, header last", _line(STEP, lambda line: line[:-1] + b', "kind": "header"}'), DAMAGED, "does not hold"),
    ("step kind a list", _line(STEP, lambda line: line.replace(b'"kind": "step"', b'"kind": ["step"]')), DAMAGED, "does not hold"),
    ("step kind an object", _line(STEP, lambda line: line.replace(b'"kind": "step"', b'"kind": {"step": 1}')), DAMAGED, "does not hold"),
    ("step spaces only", _line(STEP, lambda line: b"   "), DAMAGED, "does not hold"),  # skipped as blank, so one step short
    ("step kind header", _set(STEP, "kind", "header"), DAMAGED, "does not hold"),
    ("step kind null", _set(STEP, "kind", None), DAMAGED, "does not hold"),
    ("step kind ['step']", _set(STEP, "kind", ["step"]), DAMAGED, "does not hold"),
    ("five step lines cut", _cut_steps, DAMAGED, "does not hold"),
    # headers: another run's, or naming another cell
    ("header mu0 0.5", _set(HEADER, "mu0", 0.5), FOREIGN, None),
    ("header tau_low 0.21", _set(HEADER, "tau_low", 0.21), FOREIGN, None),
    ("header toolkit_version 0.0.0", _set(HEADER, "toolkit_version", "0.0.0"), FOREIGN, None),
    ("header format_version true", _set(HEADER, "format_version", True), FOREIGN, None),  # == 1 in Python, not in JSON
    ("header config_hash of another config", _set(HEADER, "config_hash", "0" * 16), FOREIGN, None),
    ("header seed 1.0", _set(HEADER, "seed", 1.0), DAMAGED, "header names cell"),
    ("header cell_id of another cell", _set(HEADER, "cell_id", "po0_delay0_shift-none_seed1"), DAMAGED, "header names cell"),
    ("header nested too deep", _line(HEADER, lambda line: DEEP.encode()), DAMAGED, "is not valid JSON: maximum recursion depth exceeded"),
    ("non-UTF-8 first byte", lambda trace: b"\xff" + trace, DAMAGED, "cannot be read"),
    # footers: values of the wrong type, not finite or naming another cell, and keys the writer never writes
    ("footer episode_return 'abc'", _set(FOOTER, "episode_return", "abc"), DAMAGED, "footer value episode_return must be a finite number"),
    ("footer episode_return true", _set(FOOTER, "episode_return", True), DAMAGED, "footer value episode_return must be a finite number"),
    ("footer episode_return '1.5'", _set(FOOTER, "episode_return", "1.5"), DAMAGED, "footer value episode_return must be a finite number"),
    ("footer episode_return NaN", _set(FOOTER, "episode_return", math.nan), DAMAGED, "footer value episode_return must be a finite number"),
    ("footer post_onset_kappa_mean 'x'", _set(FOOTER, "post_onset_kappa_mean", "x"), DAMAGED, "footer value post_onset_kappa_mean"),
    ("footer peak_kappa Infinity", _set(FOOTER, "peak_kappa", math.inf), DAMAGED, "footer value peak_kappa must be a finite number"),
    ("footer seed 1.7", _set(FOOTER, "seed", 1.7), DAMAGED, "footer value seed must be an integer, got 1.7"),
    ("footer seed '1'", _set(FOOTER, "seed", "1"), DAMAGED, "footer value seed must be an integer"),
    ("footer seed true", _set(FOOTER, "seed", True), DAMAGED, "footer value seed must be an integer"),
    ("footer label 5", _set(FOOTER, "label", 5), DAMAGED, "footer value label must be a string"),
    ("footer label C9", _set(FOOTER, "label", "C9"), DAMAGED, "footer names cell"),
    ("footer n_steps 'x'", _set(FOOTER, "n_steps", "x"), DAMAGED, "footer value n_steps must be an integer"),
    ("footer n_steps 59", _set(FOOTER, "n_steps", 59), DAMAGED, "does not hold its footer's 59 step lines"),
    ("footer cell_id of another seed", _set(FOOTER, "cell_id", "po0.5_delay1_shift-none_seed0"), DAMAGED, "footer names cell"),
    ("footer key injected", _set(FOOTER, "injected", 123), DAMAGED, "footer does not encode as the summary it parses to"),
    ("footer condition key injected", _set(FOOTER, "condition.injected", 123), DAMAGED, "footer does not encode"),
    ("footer condition label C9", _set(FOOTER, "condition.label", "C9"), DAMAGED, "footer does not encode"),
    ("footer condition without po_fraction", _line(FOOTER, lambda line: line.replace(b'"po_fraction": 0.5, ', b"")), DAMAGED, "condition is missing key 'po_fraction'"),
    ("footer holding only its kind", _line(FOOTER, lambda line: b'{"kind": "footer"}'), DAMAGED, "footer is missing key"),
]


def _read_as_step(line: bytes) -> bool:
    try:
        value = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # a JSONDecodeError, an over-long integer, a UnicodeDecodeError, or too deep
        return False
    return isinstance(value, dict) and value.get("kind") == "step"


def test_the_table_names_each_row_once_edits_every_row_and_damages_every_part(two_seed_tree):
    names = [name for name, *_ in TRACE_EDITS]
    assert len(set(names)) == len(names)
    fresh = two_seed_tree[1][TRACE].splitlines(keepends=True)
    damaged = set()
    for name, edit, verdict, says in TRACE_EDITS:
        lines = edit(b"".join(fresh)).splitlines(keepends=True)
        assert lines != fresh, name  # a no-op edit would pass as harmless
        assert (says is not None) == (verdict == DAMAGED), name
        if verdict == DAMAGED:
            damaged.add("header" if lines[0] != fresh[0] else "footer" if lines[-1] != fresh[-1] else "steps")
        if len(lines) == len(fresh) and (lines[0], lines[-1]) == (fresh[0], fresh[-1]):
            # an edit of step lines alone is harmless exactly when json.loads reads each edited line as a step line
            edited = [line for line, was in zip(lines, fresh) if line != was]
            assert all(map(_read_as_step, edited)) == (verdict == HARMLESS), name
    assert damaged == {"header", "steps", "footer"}


@pytest.mark.parametrize("name, edit, verdict, says", TRACE_EDITS, ids=[row[0] for row in TRACE_EDITS])
def test_every_reader_of_a_trace_gives_the_edit_its_verdict(two_seed_tree, tmp_path, monkeypatch, capsys, name, edit, verdict, says):
    cfg_path, fresh = two_seed_tree
    for file, data in fresh.items():
        (tmp_path / file).write_bytes(data)
    trace = tmp_path / TRACE
    fresh_header, fresh_summary = read_trace(str(trace))
    edited = edit(fresh[TRACE])
    trace.write_bytes(edited)
    monkeypatch.setattr(rollout, "_workers", lambda: 1)  # so that the recorder sees every batch
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)

    if verdict == DAMAGED:
        with pytest.raises(InputError, match=f"^trace file {re.escape(str(trace))} {re.escape(says)}"):
            read_trace(str(trace))
    else:
        header, summary = read_trace(str(trace))  # read_trace checks no run key
        same_header = json.dumps(header, sort_keys=True) == json.dumps(fresh_header, sort_keys=True)
        assert summary == fresh_summary and same_header == (verdict == HARMLESS)

    capsys.readouterr()
    analyzed = main(["analyze", "--config", cfg_path, "--trace-dir", str(tmp_path)])
    err = capsys.readouterr().err
    if verdict == HARMLESS:
        assert analyzed == 0 and err == ""
    elif verdict == FOREIGN:
        differ = sorted(key for key in header if json.dumps(header[key]) != json.dumps(fresh_header[key]))
        first = tmp_path / min(fresh)
        assert analyzed == 1 and err == f"error: trace file {trace} and trace file {first} mix two runs: their headers differ in {differ}\n"
    else:
        assert analyzed == 1 and err.startswith(f"error: trace file {trace} {says}") and err.count("\n") == 1

    assert main(["sweep", "--config", cfg_path, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    traces = {file: (tmp_path / file).read_bytes() for file in fresh}
    if verdict == HARMLESS:
        assert batches == [] and traces == {**fresh, TRACE: edited}
    else:
        assert batches == [[CELL]] and traces == fresh
