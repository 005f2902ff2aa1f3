"""One table of read-back corruptions per document, each row checked by every reader of it.

The base files are those of one run: ``TINY``'s config over seeds 0 and 1, with every schema key;
the snapshot ``calibrate`` makes for it; and its sweep's trace of the seed-1 C3 cell (po 0.5,
delay 1). ``CONFIG_EDITS`` is read back by ``load_config`` and ``calibrate``, ``SNAPSHOT_EDITS`` by
``CalibrationSnapshot.load``, ``run`` and ``sweep``, and ``TRACE_EDITS`` by ``read_trace``,
``analyze`` and ``sweep`` resume. A row is ``(name, edit, verdict, says)``: ``edit`` maps the base
file's bytes to the bytes read back, and the verdict is one of

- ``accepted``: every reader takes the file as it takes the base (no step value of a trace is read);
- ``refused``: every reader refuses it with the ``InputError`` that starts as ``says`` does, for
  the file at ``{path}``;
- ``foreign``: a trace with another run's header, which ``read_trace`` accepts (it checks no run key);
- ``misfiled``: another cell's trace, which ``read_trace`` accepts (it reads no file name).

``_generated`` makes most rows from four base documents: the config, the snapshot, and the trace's
header line and footer line. Each document has one rule for what an edit of one of its keys gives.
"""

import functools
import json
import os
import re
import tempfile

import pytest
from helpers import DEEP, LONG_INT, TINY, batch_cell_ids, record_calls

from compound_uq import cli, rollout
from compound_uq.cli import main
from compound_uq.config import ExperimentConfig, config_from_dict, load_config
from compound_uq.errors import InputError
from compound_uq.perturb import ConditionSpec
from compound_uq.rollout import CELL_KEYS, read_trace, trace_header
from compound_uq.snapshot import CalibrationSnapshot

ACCEPTED, REFUSED, FOREIGN, MISFILED = "accepted", "refused", "foreign", "misfiled"
CONFIG = config_from_dict(dict(TINY, grid=dict(TINY["grid"], seeds=[0, 1]), output_dir="tiny_runs"))
SNAPSHOT = rollout.calibrate(CONFIG)
BASE_CONFIG, BASE_SNAPSHOT = CONFIG.to_dict(), SNAPSHOT.to_dict()
CELL = "po0.5_delay1_shift-none_seed1"
TRACE, OTHER = f"trace_{CELL}.jsonl", "trace_po0_delay0_shift-none_seed1.jsonl"
HEADER, STEP, FOOTER = 0, 1, -1  # the lines of a trace a row edits: the header, the first step line and the footer
_RESULT = rollout.run_condition(CONFIG, SNAPSHOT, ConditionSpec(po_fraction=0.5, delay_steps=1, onset_t=CONFIG.onset_t), 1)
# the cell's header and footer lines as write_trace writes them, decoded
BASE_HEADER, BASE_FOOTER = (json.loads(json.dumps(line)) for line in (trace_header(_RESULT.run, _RESULT.condition, 1), {"kind": "footer", **_RESULT.summary()}))


@functools.cache
def _swept() -> dict:
    """The bytes of each file a sweep of ``CONFIG`` writes, by name."""
    with tempfile.TemporaryDirectory() as out_dir:
        rollout.run_sweep(CONFIG, SNAPSHOT, out_dir=out_dir)
        return {name: open(os.path.join(out_dir, name), "rb").read() for name in sorted(os.listdir(out_dir))}


DELETE, DIRECTORY = object(), object()  # a value that deletes its key; an edit that puts a directory at the path
OTHER_TYPES = [None, True, 1, 0.5, "x", [], {}]  # one value of each JSON type
NUMBERS = {"NaN": b"NaN", "Infinity": b"Infinity", "1e400": b"1e400", "of 5000 digits": LONG_INT.encode()}
# what a value must be, by the type of the base value; the one null in a base document is a cell's shift
WANTS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string", list: "a list",
         dict: "a JSON object", type(None): "null or [param, value]"}


def _keys(doc: dict, prefix: str = ""):
    """The dotted path and value of each key of ``doc`` and of its sections, sections included."""
    for key, value in doc.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


def _set(changes: dict):
    """The edit that decodes a document, sets each dotted path of ``changes`` (a number in it indexes a
    list) to its value, or deletes it for ``DELETE``, and encodes it by ``json.dumps``; a bytes value goes
    in as that JSON text."""

    def edit(data: bytes) -> bytes:
        doc, texts = json.loads(data), {}
        for dotted, value in changes.items():
            *parents, last = (int(key) if key.isdigit() else key for key in dotted.split("."))
            section = doc
            for key in parents:
                section = section[key]
            if value is DELETE:
                del section[last]
            elif isinstance(value, bytes):  # a placeholder string, replaced by the text once encoded
                section[last] = placeholder = f"\0{len(texts)}"
                texts[json.dumps(placeholder).encode()] = value
            else:
                section[last] = value
        encoded = json.dumps(doc).encode()
        for placeholder, text in texts.items():
            encoded = encoded.replace(placeholder, text)
        return encoded

    return edit


def _line(at: int, edit):
    """The edit of a trace's bytes that puts ``edit(line)`` in place of line ``at`` (without its newline)."""

    def apply(trace: bytes) -> bytes:
        lines = trace.splitlines(keepends=True)
        lines[at] = edit(lines[at].rstrip(b"\n")) + b"\n"
        return b"".join(lines)

    return apply


def _refused(kind: str, says: str) -> tuple:
    """The verdict of a file of ``kind`` whose parser refuses it with ``says``."""
    return REFUSED, f"{kind} file {{path}}: {says}"


def _unread(kind: str, says: str) -> tuple:
    """The verdict of a file of ``kind`` that cannot be read or decoded as JSON: ``says`` follows its name."""
    return REFUSED, f"{kind} file {{path}} {says}"


def _generated(base: dict, kind: str, rule) -> list[tuple]:
    """Rows that delete each key of ``base``, sections included, replace it by each value of ``OTHER_TYPES``
    of another JSON type, and write each number at a key, and the first and last of each list, as each of
    ``NUMBERS``. A 5000-digit integer is past json's int-conversion limit; any other row takes the verdict
    ``rule(key, value, new)`` gives for the ``value`` at ``key`` (a list's item, for one in a list) becoming
    ``new``, the value decoded or ``DELETE``."""
    rows = []
    for dotted, value in _keys(base):
        for new in [DELETE, *(v for v in OTHER_TYPES if type(v) is not type(value))]:
            rows.append((f"{dotted} {'deleted' if new is DELETE else json.dumps(new)}", _set({dotted: new}), *rule(dotted, value, new)))
        if type(value) in (int, float):
            numbers = [(dotted, value)]
        elif isinstance(value, list) and value and type(value[0]) in (int, float):
            numbers = [(f"{dotted}.{i}", value[i]) for i in sorted({0, len(value) - 1})]
        else:
            numbers = []
        for where, number in numbers:
            for token, text in NUMBERS.items():
                verdict = _unread(kind, "is not valid JSON: Exceeds the limit") if token == "of 5000 digits" else rule(dotted, number, json.loads(text))
                rows.append((f"{where} {token}", _set({where: text}), *verdict))
    return rows


def _typed(kind: str, document: str):
    """The type rule: a deleted key is missing, a value of another type is refused, but a float takes an integer."""

    def rule(key: str, value, new) -> tuple:
        if new is DELETE:
            return _refused(kind, f"{document} is missing key {key!r}")
        if (type(value), type(new)) == (float, int):  # nothing is coerced, but a float field takes an integer
            return ACCEPTED, None
        return _refused(kind, f"{document} value {key} must be {WANTS[type(value)]}, got {new!r}")

    return rule


def _config_rule(key: str, value, new) -> tuple:
    return (ACCEPTED, None) if new is DELETE else _typed("config", "config")(key, value, new)  # a deleted key takes its default


MISSING = _refused("trace", "trace is missing header or footer")
UNENCODED = _refused("trace", "footer does not encode as the summary it parses to")


def _footer_rule(key: str, value, new) -> tuple:
    if key == "kind":
        return MISSING
    if key == "condition.label" or (type(value), type(new)) == (float, int):  # not parsed, or parsed as 1.0 from 1
        return UNENCODED
    return _typed("trace", "footer")(key, value, new)


def _header_rule(key: str, value, new) -> tuple:
    if key == "kind":
        return MISSING
    return _refused("trace", "header names cell") if key.split(".")[0] in CELL_KEYS else (FOREIGN, None)


def _in_line(at: int, document: str, rows: list[tuple]) -> list[tuple]:
    """``rows``, each edit applied to trace line ``at`` and each name prefixed by ``document``."""
    return [(f"{document} {name}", _line(at, edit), verdict, says) for name, edit, verdict, says in rows]


def _documents(kind: str, not_an_object: tuple) -> list[tuple]:
    """The edits of a whole document: not an object, a non-UTF-8 first byte, nested too deep."""
    return [
        ("not an object", lambda data: b"[1, 2, 3]", *not_an_object),
        ("non-UTF-8 first byte", lambda data: b"\xff" + data, *_unread(kind, "cannot be read: 'utf-8' codec")),
        ("nested too deep", lambda data: DEEP.encode(), *_unread(kind, "is not valid JSON: maximum recursion depth exceeded")),
    ]


def _files(kind: str) -> list[tuple]:
    """A document that is missing, and a directory in its place."""
    return [
        ("missing file", lambda data: None, REFUSED, f"{kind} file not found: {{path}}"),
        ("a directory", lambda data: DIRECTORY, *_unread(kind, "cannot be read: [Errno 21] Is a directory")),
    ]


def _step_value(key: str, token: bytes):
    """The edit of the first step line that writes ``token`` as the text of its value of ``key``."""
    return _line(STEP, lambda line: re.sub(b'"%s": [^,}]+' % key.encode(), b'"%s": %s' % (key.encode(), token), line))


def _cut_steps(trace: bytes) -> bytes:
    lines = trace.splitlines(keepends=True)
    return b"".join([lines[0], *lines[6:]])  # five step lines cut out


def _keep(k: int):
    """The edit that keeps the first ``k`` lines of a trace: a cut at a line boundary."""
    return lambda trace: b"".join(trace.splitlines(keepends=True)[:k])


NOT_JSON = "is not valid JSON: "
TRACE_EDITS = [
    # step lines, against json.loads
    ("step reward 1e400", _step_value("reward", b"1e400"), ACCEPTED, None),
    ("step reward -0.0", _step_value("reward", b"-0.0"), ACCEPTED, None),
    ("step reward of 17 digits", _step_value("reward", b"0.12345678901234567"), ACCEPTED, None),
    ("step reward NaN", _step_value("reward", b"NaN"), ACCEPTED, None),
    ("step reward -Infinity", _step_value("reward", b"-Infinity"), ACCEPTED, None),
    ("step kind twice, step last", _line(STEP, lambda line: b'{"kind": "header", ' + line[1:]), ACCEPTED, None),
    ("step leading space", _line(STEP, lambda line: b" " + line), ACCEPTED, None),
    ("step trailing spaces and a tab", _line(STEP, lambda line: line + b"  \t"), ACCEPTED, None),
    ("step carriage return before the newline", _line(STEP, lambda line: line + b"\r"), ACCEPTED, None),  # read as CRLF
    ("step reward of 5000 digits", _step_value("reward", b"7" * 5000), *_unread("trace", NOT_JSON + "Exceeds the limit")),
    ("step t of 5000 digits", _step_value("t", LONG_INT.encode()), *_unread("trace", NOT_JSON + "Exceeds the limit")),
    ("step trailing text", _line(STEP, lambda line: line + b" x"), *_unread("trace", NOT_JSON + "Extra data")),
    ("step cut mid-number", _line(STEP, lambda line: line[: line.index(b'"reward": ')] + b'"reward": 0.'), *_unread("trace", NOT_JSON + "Expecting")),
    ("step reward 1.", _step_value("reward", b"1."), *_unread("trace", NOT_JSON + "Expecting")),
    ("step reward .5", _step_value("reward", b".5"), *_unread("trace", NOT_JSON + "Expecting value")),
    ("step not JSON", _line(STEP, lambda line: b"{not json"), *_unread("trace", NOT_JSON + "Expecting property name")),
    ("step byte order mark", _line(STEP, lambda line: "\ufeff".encode() + line), *_unread("trace", NOT_JSON + "Expecting value")),
    ("step leading form feed", _line(STEP, lambda line: b"\x0c" + line), *_unread("trace", NOT_JSON + "Expecting value")),  # not JSON whitespace
    ("step nested too deep", _line(STEP, lambda line: DEEP.encode()), *_unread("trace", NOT_JSON + "maximum recursion depth exceeded")),
    ("step non-UTF-8 byte", _line(STEP, lambda line: line.replace(b'"kind": "step"', b'"kind": "st\xffep"')), *_unread("trace", "cannot be read")),
    ("step bare array", _line(STEP, lambda line: b"[" + line + b"]"), *_refused("trace", "trace does not hold its footer's 60 step lines")),
    ("step kind twice, header last", _line(STEP, lambda line: line[:-1] + b', "kind": "header"}'), *_refused("trace", "trace does not hold")),
    ("step kind a list", _line(STEP, lambda line: line.replace(b'"kind": "step"', b'"kind": ["step"]')), *_refused("trace", "trace does not hold")),
    ("step kind an object", _line(STEP, lambda line: line.replace(b'"kind": "step"', b'"kind": {"step": 1}')), *_refused("trace", "trace does not hold")),
    ("step spaces only", _line(STEP, lambda line: b"   "), *_refused("trace", "trace does not hold")),  # skipped as blank, so one step short
    ("step kind header", _line(STEP, _set({"kind": "header"})), *_refused("trace", "trace does not hold")),
    ("step kind null", _line(STEP, _set({"kind": None})), *_refused("trace", "trace does not hold")),
    ("step kind ['step']", _line(STEP, _set({"kind": ["step"]})), *_refused("trace", "trace does not hold")),
    ("five step lines cut", _cut_steps, *_refused("trace", "trace does not hold")),
    # each key of the header and the footer deleted or retyped
    *_in_line(HEADER, "header", _generated(BASE_HEADER, "trace", _header_rule)),
    *_in_line(FOOTER, "footer", _generated(BASE_FOOTER, "trace", _footer_rule)),
    # values of the right type that name another run or cell, and keys the writer never writes
    ("header policy_mode \"adaptive\"", _line(HEADER, _set({"policy_mode": "adaptive"})), FOREIGN, None),
    ("misfiled", lambda trace: _swept()[OTHER], MISFILED, None),
    ("footer label \"C9\"", _line(FOOTER, _set({"label": "C9"})), *_refused("trace", "footer names cell")),
    ("footer cell_id of another seed", _line(FOOTER, _set({"cell_id": "po0.5_delay1_shift-none_seed0"})), *_refused("trace", "footer names cell")),
    ("footer n_steps 59", _line(FOOTER, _set({"n_steps": 59})), *_refused("trace", "trace does not hold its footer's 59 step lines")),
    ("footer injected added", _line(FOOTER, _set({"injected": 123})), *UNENCODED),
    ("footer condition.injected added", _line(FOOTER, _set({"condition.injected": 123})), *UNENCODED),
    *_documents("trace", MISSING),
    # a cut at each line boundary of the header, the 60 step lines and the footer
    *[(f"first {k} lines kept", _keep(k), *MISSING) for k in range(TINY["horizon"] + 2)],
]


def _table(generated: list[tuple], semantic: dict, named: list[tuple]) -> list[tuple]:
    """The rows: ``generated``, with the verdict of each one ``semantic`` names replaced, then ``named``."""
    names = {row[0] for row in generated}
    assert set(semantic) <= names, set(semantic) - names
    return [(name, edit, *semantic.get(name, (verdict, says))) for name, edit, verdict, says in generated] + named


PAIR = _refused("config", "threshold overrides must set both tau_low and tau_high or neither")
CONFIG_EDITS = _table(
    _generated(BASE_CONFIG, "config", _config_rule),
    {  # refusals that follow from the value, not its type
        "grid deleted": _refused("config", "MassSpring1D has no dynamics parameter 'gain_left'"),  # the default grid shifts gain_left
        "grid.shift_levels deleted": _refused("config", "MassSpring1D has no dynamics parameter 'gain_left'"),
        "thresholds.tau_low deleted": PAIR,
        "thresholds.tau_high deleted": PAIR,
        "thresholds.tau_low null": PAIR,
        "thresholds.tau_high null": PAIR,
        "thresholds.tau_low 1": _refused("config", "need 0 <= tau_low < tau_high, got (1.0, 0.5)"),
    },
    [
        # keys outside the schema
        ("not_a_key added", _set({"not_a_key": 1}), *_refused("config", "unknown config keys in config root: ['not_a_key']")),
        ("sweep_workers added", _set({"sweep_workers": 1}), *_refused("config", "unknown config keys in config root: ['sweep_workers']")),
        ("grid.bogus added", _set({"grid.bogus": []}), *_refused("config", "unknown config keys in grid: ['bogus']")),
        ("ensemble.members added", _set({"ensemble.members": 5}), *_refused("config", "unknown config keys in ensemble: ['members']")),
        ("policy.alpha added", _set({"policy.alpha": 1.0}), *_refused("config", "unknown config keys in policy: ['alpha']")),
        ("adaptive.rate added", _set({"adaptive.rate": 0.1}), *_refused("config", "unknown config keys in adaptive: ['rate']")),
        ("thresholds.tau_mid added", _set({"thresholds.tau_mid": 0.3}), *_refused("config", "unknown config keys in thresholds: ['tau_mid']")),
        # values of the wrong type that the generated rows do not write
        ("schema_version 2", _set({"schema_version": 2}), *_refused("config", "unsupported config schema_version 2")),
        ("policy.alpha_max \"0.5\"", _set({"policy.alpha_max": "0.5"}), *_refused("config", "config value policy.alpha_max must be a finite number, got '0.5'")),
        ("policy.alpha_max 10**400", _set({"policy.alpha_max": b"1" + b"0" * 400}), *_refused("config", "config value policy.alpha_max must be a finite number, got 1000")),
        ("ensemble.c_tau -Infinity", _set({"ensemble.c_tau": b"-Infinity"}), *_refused("config", "config value ensemble.c_tau must be a finite number, got -inf")),
        ("ensemble.learning_rate false", _set({"ensemble.learning_rate": False}), *_refused("config", "config value ensemble.learning_rate must be a finite number, got False")),
        ("thresholds.round_to_decimal \"false\"", _set({"thresholds.round_to_decimal": "false"}), *_refused("config", "config value thresholds.round_to_decimal must be true or false, got 'false'")),
        ("grid.seeds [1.7]", _set({"grid.seeds": [1.7]}), *_refused("config", "config value grid.seeds must be an integer, got 1.7")),
        ("grid.shift_levels [[1, 0.5]]", _set({"grid.shift_levels": [[1, 0.5]]}), *_refused("config", "config value grid.shift_levels parameter must be a string, got 1")),
        ("output_dir non-UTF-8", _set({"output_dir": b'"\xff"'}), *_unread("config", "cannot be read: 'utf-8' codec")),
        ("not JSON", lambda data: b"{not json", *_unread("config", NOT_JSON + "Expecting property name")),
        # values that parse, but that no run could use
        ("env_id HoverDrone", _set({"env_id": "HoverDrone"}), *_refused("config", "unknown env_id 'HoverDrone'; choose from ['DriftBot', 'MassSpring1D']")),
        ("horizon and onset_t 300", _set({"horizon": 300, "onset_t": 300}), *_refused("config", "horizon 300 must exceed onset_t + 1 = 301")),
        ("onset_t -5", _set({"onset_t": -5}), *_refused("config", "onset_t must be nonnegative, got -5")),
        ("ensemble.m_members 1", _set({"ensemble.m_members": 1}), *_refused("config", "ensemble needs at least 2 members")),
        ("ensemble.t_pre 0", _set({"ensemble.t_pre": 0}), *_refused("config", "t_pre must be positive")),
        ("probe_episodes 0", _set({"probe_episodes": 0}), *_refused("config", "probe_episodes must be positive")),
        ("grid.seeds [-1, 0]", _set({"grid.seeds": [-1, 0]}), *_refused("config", "seeds must be nonnegative, got calibration_seed 0 and grid.seeds [-1, 0]")),
        ("calibration_seed -1", _set({"calibration_seed": -1}), *_refused("config", "seeds must be nonnegative, got calibration_seed -1 and grid.seeds [0, 1]")),
        ("ensemble.batch_size 0", _set({"ensemble.batch_size": 0}), *_refused("config", "hidden_width and batch_size must be at least 1")),
        ("ensemble.hidden_width 0", _set({"ensemble.hidden_width": 0}), *_refused("config", "hidden_width and batch_size must be at least 1")),
        ("ensemble.epochs -1", _set({"ensemble.epochs": -1}), *_refused("config", "epochs and learning_rate must be nonnegative")),
        ("ensemble.learning_rate -0.5", _set({"ensemble.learning_rate": -0.5}), *_refused("config", "epochs and learning_rate must be nonnegative")),
        ("ensemble.clip_c 0", _set({"ensemble.clip_c": 0}), *_refused("config", "clip_c must be positive and c_tau nonnegative, got 0.0 and 0.3")),
        ("ensemble.c_tau -1", _set({"ensemble.c_tau": -1}), *_refused("config", "clip_c must be positive and c_tau nonnegative, got 5.0 and -1.0")),
        ("adaptive.every 0", _set({"adaptive.every": 0}), *_refused("config", "adaptive.every must be at least 1, got 0")),
        ("adaptive.window -1", _set({"adaptive.window": -1}), *_refused("config", "adaptive.window and adaptive.epochs must be nonnegative")),
        ("adaptive.epochs -1", _set({"adaptive.epochs": -1}), *_refused("config", "adaptive.window and adaptive.epochs must be nonnegative")),
        ("grid.delay_levels [-1]", _set({"grid.delay_levels": [-1]}), *_refused("config", "delay_steps must be a nonnegative integer, got -1")),
        ("grid.seeds []", _set({"grid.seeds": []}), *_refused("config", "seeds must be nonempty")),
        ("grid.po_levels [1.5]", _set({"grid.po_levels": [1.5]}), *_refused("config", "po_fraction must be in [0, 1], got 1.5")),
        ("thresholds 0.5 and 0.2", _set({"thresholds.tau_low": 0.5, "thresholds.tau_high": 0.2}), *_refused("config", "need 0 <= tau_low < tau_high, got (0.5, 0.2)")),
        ("grid.po_levels [0.0, 0.5, 0.5]", _set({"grid.po_levels": [0.0, 0.5, 0.5]}), *_refused("config", "grid levels repeat: cell po0.5_delay0_shift-none_seed0 repeats")),
        ("grid.delay_levels [0, 1, 1]", _set({"grid.delay_levels": [0, 1, 1]}), *_refused("config", "grid levels repeat: cell po0_delay1_shift-none_seed0 repeats")),
        ("grid.shift_levels [null, null]", _set({"grid.shift_levels": [None, None]}), *_refused("config", "grid levels repeat: cell po0_delay0_shift-none_seed0 repeats")),
        ("grid.seeds [0, 0]", _set({"grid.seeds": [0, 0]}), *_refused("config", "grid levels repeat: cell po0_delay0_shift-none_seed0 repeats")),
        ("grid.po_levels [0.0, -0.0, 0.5]", _set({"grid.po_levels": [0.0, -0.0, 0.5]}), *_refused("config", "grid levels repeat: cell po-0_delay0_shift-none_seed0 repeats")),
        *_documents("config", _refused("config", "config must be a JSON object, got list")),
        *_files("config"),
    ],
)

FOREIGN_HASH = config_from_dict(dict(TINY, horizon=50)).config_hash()
MISMATCH = _refused("snapshot", "snapshot weights hash mismatch; file corrupted or edited")
SNAPSHOT_EDITS = _table(
    _generated(BASE_SNAPSHOT, "snapshot", _typed("snapshot", "snapshot")),
    {  # thresholds refused by value
        "tau_low 1": _refused("snapshot", "need 0 <= tau_low < tau_high, got (1.0, 0.5)"),
        "tau_high 1": (REFUSED, "snapshot {path} holds thresholds 0.2, 1.0, not this config's overrides 0.2, 0.5"),
    },
    [
        # keys outside the format, such as the ensemble seed format 2 wrote
        ("ensemble.seed added", _set({"ensemble.seed": 7}), *_refused("snapshot", "unknown snapshot keys in ensemble: ['seed']")),
        ("ensemble.x_stdev added", _set({"ensemble.x_stdev": 7}), *_refused("snapshot", "unknown snapshot keys in ensemble: ['x_stdev']")),
        ("tau_hihg added", _set({"tau_hihg": 7}), *_refused("snapshot", "unknown snapshot keys in root: ['tau_hihg']")),
        # other format versions
        ("format_version 1", _set({"format_version": 1}), *_refused("snapshot", "unsupported snapshot format_version 1; calibrate again")),
        ("format_version 4", _set({"format_version": 4}), *_refused("snapshot", "unsupported snapshot format_version 4; calibrate again")),
        ("as format 2 wrote it", _set({"format_version": 2, "ensemble.seed": 0, "ensemble.frozen": True}), *_refused("snapshot", "unsupported snapshot format_version 2; calibrate again")),
        ("only format_version", lambda data: b'{"format_version": 3}', *_refused("snapshot", "snapshot is missing key 'tau_low'")),
        # weights that do not fit their shape or their hash
        ("ensemble.w1 one number short", _set({"ensemble.w1": BASE_SNAPSHOT["ensemble"]["w1"][:-1]}), *_refused("snapshot", "snapshot value ensemble.w1 holds 639 numbers, which do not fill shape (2, 5, 64)")),
        ("ensemble.hidden_width 7", _set({"ensemble.hidden_width": 7}), *_refused("snapshot", "snapshot value ensemble.w1 holds 640 numbers, which do not fill shape (2, 5, 7)")),
        ("ensemble.b2.0 plus 1", _set({"ensemble.b2.0": BASE_SNAPSHOT["ensemble"]["b2"][0] + 1.0}), *MISMATCH),
        ("ensemble.b2.0 plus 1 and weights_hash deleted", _set({"ensemble.b2.0": BASE_SNAPSHOT["ensemble"]["b2"][0] + 1.0, "weights_hash": DELETE}), *_refused("snapshot", "snapshot is missing key 'weights_hash'")),
        # values of the wrong type that the generated rows do not write
        ("mu0 \"0.5\"", _set({"mu0": "0.5"}), *_refused("snapshot", "snapshot value mu0 must be a finite number, got '0.5'")),
        ("mu0 non-UTF-8", _set({"mu0": b'"\xff"'}), *_unread("snapshot", "cannot be read: 'utf-8' codec")),
        ("not JSON", lambda data: b"{oops", *_unread("snapshot", NOT_JSON + "Expecting property name")),
        # a snapshot of another config: check_config refuses it
        ("config_hash of another config", _set({"config_hash": FOREIGN_HASH}), REFUSED, f"snapshot {{path}} was calibrated for MassSpring1D {FOREIGN_HASH}, not this config"),
        ("env_id DriftBot", _set({"env_id": "DriftBot"}), REFUSED, f"snapshot {{path}} was calibrated for DriftBot {CONFIG.config_hash()}, not this config"),
        ("thresholds 0.25 and 0.6", _set({"tau_low": 0.25, "tau_high": 0.6}), REFUSED, "snapshot {path} holds thresholds 0.25, 0.6, not this config's overrides 0.2, 0.5"),
        *_documents("snapshot", _refused("snapshot", "snapshot must be a JSON object, got list")),
        *_files("snapshot"),
    ],
)


def _read_as_step(line: bytes) -> bool:
    try:
        value = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # a JSONDecodeError, an over-long integer, a UnicodeDecodeError, or too deep
        return False
    return isinstance(value, dict) and value.get("kind") == "step"


def _flat(lines: list[bytes], documents: tuple) -> dict:
    """The JSON text of each key of the documents on lines ``documents``, by line and dotted path."""
    docs = {at: json.loads(lines[at]) for at in documents}
    return {(at, dotted): json.dumps(value) for at, doc in docs.items() if isinstance(doc, dict) for dotted, value in _keys(doc)}


BASES = {"config": json.dumps(BASE_CONFIG).encode(), "snapshot": json.dumps(BASE_SNAPSHOT).encode()}
TABLES = {"config": (CONFIG_EDITS, (0,)), "snapshot": (SNAPSHOT_EDITS, (0,)), "trace": (TRACE_EDITS, (HEADER, FOOTER))}


@pytest.mark.parametrize("kind", TABLES)
def test_each_table_names_each_row_once_edits_every_row_and_reaches_every_key(kind):
    table, documents = TABLES[kind]
    names = [name for name, *_ in table]
    assert len(set(names)) == len(names)
    data = _swept()[TRACE] if kind == "trace" else BASES[kind]
    base = data.splitlines()
    keys, reached = _flat(base, documents), set()
    for name, edit, verdict, says in table:
        edited = edit(data)
        assert edited != data, name  # a no-op edit would pass as accepted
        assert (says is not None) == (verdict == REFUSED), name
        lines = edited.splitlines() if isinstance(edited, bytes) else []
        if len(lines) != len(base):  # a cut trace, or no file
            continue
        if all(lines[at] == base[at] for at in documents):
            # an edit of step lines alone is accepted exactly when json.loads reads each edited line as a step line
            assert all(_read_as_step(line) for line, was in zip(lines, base) if line != was) == (verdict == ACCEPTED), name
        try:
            edited_keys = _flat(lines, documents)
        except (ValueError, RecursionError):  # not UTF-8, not JSON, or too deep
            continue
        reached |= {key for key, value in keys.items() if edited_keys.get(key) != value}
    assert reached == set(keys)  # every key of every document, each section's included


def test_a_config_without_a_key_takes_its_default():
    defaults = dict(_keys(ExperimentConfig().to_dict()))
    deleted = [name.removesuffix(" deleted") for name, _, verdict, _ in CONFIG_EDITS if name.endswith(" deleted") and verdict == ACCEPTED]
    assert len(deleted) == len(list(_keys(BASE_CONFIG))) - 4  # all but grid, grid.shift_levels and the two thresholds
    for key in deleted:
        edited = json.loads(_set({key: DELETE})(BASES["config"]))
        assert config_from_dict(edited).to_dict() == json.loads(_set({key: defaults[key]})(BASES["config"])), key


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The base config and snapshot, written to files: their paths."""
    root = tmp_path_factory.mktemp("base")
    for kind, name in (("config", "config.json"), ("snapshot", "calibration.json")):
        (root / name).write_bytes(BASES[kind])
    return str(root / "config.json"), str(root / "calibration.json")


def _place(path, data) -> None:
    """Put an edit's output at ``path``: its bytes, a directory, or nothing for None."""
    if data is DIRECTORY:
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)


def _check_refusal(load, path, says: str):
    """The message of the ``InputError`` that ``load()`` raises, once it is checked to start as ``says`` does for ``path``."""
    with pytest.raises(InputError) as refused:
        load()
    assert str(refused.value).startswith(says.replace("{path}", str(path)))
    return str(refused.value)


def _encoded(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("name, edit, verdict, says", TRACE_EDITS, ids=[row[0] for row in TRACE_EDITS])
def test_read_trace_analyze_and_sweep_give_the_edit_its_verdict(workspace, tmp_path, monkeypatch, capsys, name, edit, verdict, says):
    config, snapshot = workspace
    tree = tmp_path / "sweep"
    tree.mkdir()
    swept = _swept()
    for file, data in swept.items():
        (tree / file).write_bytes(data)
    trace = tree / TRACE
    fresh_header, fresh_summary = read_trace(str(tree / (OTHER if verdict == MISFILED else TRACE)))
    edited = edit(swept[TRACE])
    trace.write_bytes(edited)
    monkeypatch.setattr(rollout, "_workers", lambda: 1)  # so that the recorder sees every batch
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)

    if verdict == REFUSED:
        message = _check_refusal(lambda: read_trace(str(trace)), trace, says)
    else:
        header, summary = read_trace(str(trace))  # read_trace checks no run key and reads no file name
        assert summary == fresh_summary and (_encoded(header) == _encoded(fresh_header)) == (verdict != FOREIGN)

    capsys.readouterr()
    analyzed = main(["analyze", "--config", config, "--trace-dir", str(tree), "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    if verdict == ACCEPTED:
        assert analyzed == 0 and err == ""
    elif verdict == FOREIGN:
        differ = sorted(key for key in {*header, *fresh_header} if (key in header, _encoded(header.get(key))) != (key in fresh_header, _encoded(fresh_header.get(key))))
        first = tree / min(file for file in swept if file.startswith("trace_"))
        assert analyzed == 1 and err == f"error: trace file {trace} and trace file {first} mix two runs: their headers differ in {differ}\n"
    elif verdict == MISFILED:
        assert analyzed == 1 and err == f"error: two cell summaries for cell {summary['cell_id']}\n"
    else:
        assert analyzed == 1 and err == f"error: {message}\n"

    assert main(["sweep", "--config", config, "--snapshot", snapshot, "--out-dir", str(tree)]) == 0
    capsys.readouterr()
    files = {path.name: path.read_bytes() for path in tree.iterdir()}
    if verdict == ACCEPTED:
        assert batches == [] and files == {**swept, TRACE: edited}
    else:
        assert batches == [[CELL]] and files == swept  # the cell alone simulated again, and every file as a fresh sweep writes it


@pytest.mark.parametrize("name, edit, verdict, says", CONFIG_EDITS, ids=[row[0] for row in CONFIG_EDITS])
def test_load_config_and_calibrate_give_the_edit_its_verdict(tmp_path, capsys, name, edit, verdict, says):
    path, out = tmp_path / "config.json", tmp_path / "out" / "calibration.json"
    _place(path, edit(BASES["config"]))
    if verdict == ACCEPTED:
        load_config(str(path))
    else:
        message = _check_refusal(lambda: load_config(str(path)), path, says)
    calibrated = main(["calibrate", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if verdict == ACCEPTED:
        assert calibrated == 0 and err == "" and out.exists()
    else:
        assert calibrated == 1 and err == f"error: {message}\n" and not out.exists()


@pytest.mark.parametrize("name, edit, verdict, says", SNAPSHOT_EDITS, ids=[row[0] for row in SNAPSHOT_EDITS])
def test_snapshot_load_run_and_sweep_give_the_edit_its_verdict(workspace, tmp_path, monkeypatch, capsys, name, edit, verdict, says):
    path, trace, sweep = tmp_path / "calibration.json", tmp_path / "trace.jsonl", tmp_path / "sweep"
    _place(path, edit(BASES["snapshot"]))
    if verdict == ACCEPTED:
        CalibrationSnapshot.load(str(path), CONFIG)
    else:
        message = _check_refusal(lambda: CalibrationSnapshot.load(str(path), CONFIG), path, says)
    monkeypatch.setattr(rollout, "_workers", lambda: 1)  # so that the recorders see every batch
    runs = record_calls(monkeypatch, cli, "run_condition", lambda *args, **kwargs: None)
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    argv = ["--config", workspace[0], "--snapshot", str(path)]
    for command, out in ((["run", *argv, "--out", str(trace)], trace), (["sweep", *argv, "--out-dir", str(sweep)], sweep)):
        done = main(command)
        err = capsys.readouterr().err
        if verdict == ACCEPTED:
            assert done == 0 and err == "" and out.exists()
        else:
            assert done == 1 and err == f"error: {message}\n" and not out.exists() and runs == batches == []
