"""One table of read-back corruptions per document, each row checked by every reader of it.

Each row of ``TRACE_EDITS`` edits the bytes of one fresh trace, the seed-1 C3 cell (po 0.5,
delay 1) of a two-seed sweep of ``TINY``, and is read back by ``read_trace``, ``analyze`` and
``sweep`` resume, with a verdict:

- ``harmless``: ``json.loads`` still reads each edited line as a step line, so every reader
  accepts the trace (no step value is read);
- ``foreign``: another run's header, which ``read_trace`` accepts (it checks no run key);
- ``damaged``: anything else.

Each row of ``CONFIG_EDITS`` and ``SNAPSHOT_EDITS`` edits one base document, ``TINY``'s config
with every schema key, or the snapshot ``calibrate`` writes for it. The config is read back by
``load_config`` and ``calibrate``, the snapshot by ``CalibrationSnapshot.load``, ``run`` and
``sweep``, and the verdict is ``accepted``, or ``refused`` with the start of the ``InputError``.
"""

import copy
import json
import math
import re

import pytest
from helpers import DEEP, LONG_INT, TINY, batch_cell_ids, record_calls

from compound_uq import cli, rollout
from compound_uq.cli import main
from compound_uq.config import ExperimentConfig, config_from_dict, load_config
from compound_uq.errors import InputError
from compound_uq.rollout import read_trace
from compound_uq.snapshot import CalibrationSnapshot

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


def _keep(k: int):
    """The edit that keeps the first ``k`` lines of a trace: a cut at a line boundary."""
    return lambda trace: b"".join(trace.splitlines(keepends=True)[:k])


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
    # a cut at each line boundary of the header, the 60 step lines and the footer
    *[(f"first {k} lines kept", _keep(k), DAMAGED, "is missing header or footer") for k in range(TINY["horizon"] + 2)],
]


def _read_as_step(line: bytes) -> bool:
    try:
        value = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # a JSONDecodeError, an over-long integer, a UnicodeDecodeError, or too deep
        return False
    return isinstance(value, dict) and value.get("kind") == "step"


def test_the_table_names_each_row_once_edits_every_row_damages_every_part_and_cuts_every_boundary(two_seed_tree):
    names = [name for name, *_ in TRACE_EDITS]
    assert len(set(names)) == len(names)
    fresh = two_seed_tree[1][TRACE].splitlines(keepends=True)
    boundaries = {b"".join(fresh[:k]): k for k in range(len(fresh))}  # the cuts that keep the first k lines
    damaged, cuts = set(), []
    for name, edit, verdict, says in TRACE_EDITS:
        edited = edit(b"".join(fresh))
        lines = edited.splitlines(keepends=True)
        assert lines != fresh, name  # a no-op edit would pass as harmless
        assert (says is not None) == (verdict == DAMAGED), name
        if verdict == DAMAGED:
            damaged.add("header" if lines[:1] != fresh[:1] else "footer" if lines[-1:] != fresh[-1:] else "steps")
        if edited in boundaries:
            cuts.append(boundaries[edited])
        if len(lines) == len(fresh) and (lines[0], lines[-1]) == (fresh[0], fresh[-1]):
            # an edit of step lines alone is harmless exactly when json.loads reads each edited line as a step line
            edited = [line for line, was in zip(lines, fresh) if line != was]
            assert all(map(_read_as_step, edited)) == (verdict == HARMLESS), name
    assert damaged == {"header", "steps", "footer"}
    assert sorted(cuts) == list(range(len(fresh)))


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


ACCEPTED, REFUSED = "accepted", "refused"
CONFIG = config_from_dict(dict(TINY, output_dir="tiny_runs"))
BASE_CONFIG = CONFIG.to_dict()  # every schema key
BASE_SNAPSHOT = rollout.calibrate(CONFIG).to_dict()
DELETE, DIRECTORY = object(), object()  # a value that deletes its key; an edit that puts a directory at the path
OTHER_TYPES = [None, True, 1, 0.5, "x", [], {}]  # one value of each JSON type
NUMBERS = {"NaN": b"NaN", "Infinity": b"Infinity", "1e400": b"1e400", "of 5000 digits": LONG_INT.encode()}
WANTS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string", list: "a list"}


def _keys(doc: dict, prefix: str = ""):
    """The dotted path and value of each key of ``doc`` and of its sections, sections included."""
    for key, value in doc.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


def _set(changes: dict):
    """The edit that sets each dotted path of ``changes`` (a number in it indexes a list) to its value,
    or deletes it for ``DELETE``, and encodes the document by ``json.dumps``; a bytes value goes in as
    that JSON text."""

    def edit(doc: dict) -> bytes:
        texts = {}
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


def _verdict(says: str | None) -> tuple:
    return (ACCEPTED, None) if says is None else (REFUSED, says)


def _refused(document: str, says: str) -> tuple:
    return REFUSED, f"{document} file {{path}}: {says}"


PAIR = _refused("config", "threshold overrides must set both tau_low and tau_high or neither")
MISMATCH = _refused("snapshot", "snapshot weights hash mismatch; file corrupted or edited")


def _generated(base: dict, document: str, deleted: str | None) -> list[tuple]:
    """Each key of ``base`` deleted (refused with ``deleted``, or accepted for None), each key replaced by
    each value of ``OTHER_TYPES`` of another JSON type, and each number at a key, and the first and last of
    each list, written as each of ``NUMBERS``; every verdict follows the key's type in ``base``."""
    at = f"{document} file {{path}}: "
    rows = []
    for dotted, value in _keys(base):
        rows.append((f"{dotted} deleted", _set({dotted: DELETE}), *_verdict(deleted and at + deleted.format(key=dotted))))
        for other in (v for v in OTHER_TYPES if type(v) is not type(value)):
            if isinstance(value, dict):  # a section
                says = f"{dotted} must be a JSON object" if document == "config" else f"snapshot {dotted} must be a JSON object, got {type(other).__name__}"
            elif (type(value), type(other)) != (float, int):  # nothing is coerced, but a float field takes an integer
                says = f"{document} value {dotted} must be {WANTS[type(value)]}, got {other!r}"
            else:
                says = None
            rows.append((f"{dotted} {json.dumps(other)}", _set({dotted: other}), *_verdict(says and at + says)))
        if type(value) in (int, float):
            numbers = [(dotted, value)]
        elif isinstance(value, list) and value and type(value[0]) in (int, float):
            numbers = [(f"{dotted}.{i}", value[i]) for i in sorted({0, len(value) - 1})]
        else:
            numbers = []
        for where, number in numbers:
            for token, text in NUMBERS.items():
                if token == "of 5000 digits":  # past json's int-conversion limit
                    says = f"{document} file {{path}} is not valid JSON: Exceeds the limit"
                else:
                    says = at + f"{document} value {dotted} must be {WANTS[type(number)]}, got {json.loads(text)}"
                rows.append((f"{where} {token}", _set({where: text}), REFUSED, says))
    return rows


def _documents(document: str, not_an_object: str) -> list[tuple]:
    """The edits of a whole document: not an object, a non-UTF-8 first byte, nested too deep, missing, a directory."""
    return [
        ("not an object", lambda doc: b"[1, 2, 3]", REFUSED, f"{document} file {{path}}: {not_an_object}"),
        ("non-UTF-8 first byte", lambda doc: b"\xff" + json.dumps(doc).encode(), REFUSED, f"{document} file {{path}} cannot be read: 'utf-8' codec"),
        ("nested too deep", lambda doc: DEEP.encode(), REFUSED, f"{document} file {{path}} is not valid JSON: maximum recursion depth exceeded"),
        ("missing file", lambda doc: None, REFUSED, f"{document} file not found: {{path}}"),
        ("a directory", lambda doc: DIRECTORY, REFUSED, f"{document} file {{path}} cannot be read: [Errno 21] Is a directory"),
    ]


def _table(generated: list[tuple], semantic: dict, named: list[tuple], documents: list[tuple]) -> list[tuple]:
    """The rows: ``generated``, with the verdict of each one ``semantic`` names replaced, then ``named`` and ``documents``."""
    names = {row[0] for row in generated}
    assert set(semantic) <= names, set(semantic) - names
    return [(name, edit, *semantic.get(name, (verdict, says))) for name, edit, verdict, says in generated] + named + documents


CONFIG_EDITS = _table(
    _generated(BASE_CONFIG, "config", None),
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
        ("output_dir non-UTF-8", _set({"output_dir": b'"\xff"'}), REFUSED, "config file {path} cannot be read: 'utf-8' codec"),
        ("not JSON", lambda doc: b"{not json", REFUSED, "config file {path} is not valid JSON: Expecting property name"),
        # values that parse, but that no run could use
        ("env_id HoverDrone", _set({"env_id": "HoverDrone"}), *_refused("config", "unknown env_id 'HoverDrone'; choose from ['DriftBot', 'MassSpring1D']")),
        ("horizon and onset_t 300", _set({"horizon": 300, "onset_t": 300}), *_refused("config", "horizon 300 must exceed onset_t + 1 = 301")),
        ("onset_t -5", _set({"onset_t": -5}), *_refused("config", "onset_t must be nonnegative, got -5")),
        ("ensemble.m_members 1", _set({"ensemble.m_members": 1}), *_refused("config", "ensemble needs at least 2 members")),
        ("ensemble.t_pre 0", _set({"ensemble.t_pre": 0}), *_refused("config", "t_pre must be positive")),
        ("probe_episodes 0", _set({"probe_episodes": 0}), *_refused("config", "probe_episodes must be positive")),
        ("grid.seeds [-1, 0]", _set({"grid.seeds": [-1, 0]}), *_refused("config", "seeds must be nonnegative, got calibration_seed 0 and grid.seeds [-1, 0]")),
        ("calibration_seed -1", _set({"calibration_seed": -1}), *_refused("config", "seeds must be nonnegative, got calibration_seed -1 and grid.seeds [0]")),
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
    ],
    _documents("config", "config root must be a JSON object"),
)

FOREIGN_HASH = config_from_dict(dict(TINY, horizon=50)).config_hash()
SNAPSHOT_EDITS = _table(
    _generated(BASE_SNAPSHOT, "snapshot", "snapshot is missing key '{key}'"),
    {  # the ensemble section read as None, a weights_hash compared but never parsed, and thresholds refused by value
        "ensemble deleted": _refused("snapshot", "snapshot ensemble must be a JSON object, got NoneType"),
        **{f"weights_hash {change}": MISMATCH for change in ["deleted", *(json.dumps(v) for v in OTHER_TYPES if type(v) is not str)]},
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
        ("only format_version", lambda doc: b'{"format_version": 3}', *_refused("snapshot", "snapshot is missing key 'tau_low'")),
        # weights that do not fit their shape or their hash
        ("ensemble.w1 one number short", _set({"ensemble.w1": BASE_SNAPSHOT["ensemble"]["w1"][:-1]}), *_refused("snapshot", "snapshot value ensemble.w1 holds 639 numbers, which do not fill shape (2, 5, 64)")),
        ("ensemble.hidden_width 7", _set({"ensemble.hidden_width": 7}), *_refused("snapshot", "snapshot value ensemble.w1 holds 640 numbers, which do not fill shape (2, 5, 7)")),
        ("ensemble.b2.0 plus 1", _set({"ensemble.b2.0": BASE_SNAPSHOT["ensemble"]["b2"][0] + 1.0}), *MISMATCH),
        ("ensemble.b2.0 plus 1 and weights_hash deleted", _set({"ensemble.b2.0": BASE_SNAPSHOT["ensemble"]["b2"][0] + 1.0, "weights_hash": DELETE}), *MISMATCH),
        # values of the wrong type that the generated rows do not write
        ("mu0 \"0.5\"", _set({"mu0": "0.5"}), *_refused("snapshot", "snapshot value mu0 must be a finite number, got '0.5'")),
        ("mu0 non-UTF-8", _set({"mu0": b'"\xff"'}), REFUSED, "snapshot file {path} cannot be read: 'utf-8' codec"),
        ("not JSON", lambda doc: b"{oops", REFUSED, "snapshot file {path} is not valid JSON: Expecting property name"),
        # a snapshot of another config: check_config refuses it
        ("config_hash of another config", _set({"config_hash": FOREIGN_HASH}), REFUSED, f"snapshot {{path}} was calibrated for MassSpring1D {FOREIGN_HASH}, not this config"),
        ("env_id DriftBot", _set({"env_id": "DriftBot"}), REFUSED, f"snapshot {{path}} was calibrated for DriftBot {CONFIG.config_hash()}, not this config"),
        ("thresholds 0.25 and 0.6", _set({"tau_low": 0.25, "tau_high": 0.6}), REFUSED, "snapshot {path} holds thresholds 0.25, 0.6, not this config's overrides 0.2, 0.5"),
    ],
    _documents("snapshot", "snapshot must be a JSON object, got list"),
)


def _place(path, data) -> None:
    """Put an edit's output at ``path``: its bytes, a directory, or nothing for None."""
    if data is DIRECTORY:
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)


def _flat(doc) -> dict:
    return {dotted: json.dumps(value) for dotted, value in _keys(doc)} if isinstance(doc, dict) else {}


@pytest.mark.parametrize("base, table", [(BASE_CONFIG, CONFIG_EDITS), (BASE_SNAPSHOT, SNAPSHOT_EDITS)], ids=["config", "snapshot"])
def test_the_document_tables_name_each_row_once_edit_every_row_and_reach_every_key(base, table):
    names = [name for name, *_ in table]
    assert len(set(names)) == len(names)
    fresh, keys, reached = json.dumps(base).encode(), _flat(base), set()
    for name, edit, verdict, says in table:
        edited = edit(copy.deepcopy(base))
        assert edited != fresh, name
        assert (says is not None) == (verdict == REFUSED), name
        try:
            edited_keys = _flat(json.loads(edited))
        except (TypeError, ValueError, RecursionError):  # no bytes, not UTF-8, not JSON, or too deep
            continue
        reached |= {key for key, value in keys.items() if edited_keys.get(key) != value}
    assert reached == set(keys)  # every key, the ensemble section's included


def test_a_config_without_a_key_takes_its_default():
    defaults = dict(_keys(ExperimentConfig().to_dict()))
    deleted = [name.removesuffix(" deleted") for name, _, verdict, _ in CONFIG_EDITS if name.endswith(" deleted") and verdict == ACCEPTED]
    assert len(deleted) == len(list(_keys(BASE_CONFIG))) - 4  # all but grid, grid.shift_levels and the two thresholds
    for key in deleted:
        edited = json.loads(_set({key: DELETE})(copy.deepcopy(BASE_CONFIG)))
        assert config_from_dict(edited).to_dict() == json.loads(_set({key: defaults[key]})(copy.deepcopy(BASE_CONFIG))), key


def _check_refusal(load, path, says: str):
    """The message of the ``InputError`` that ``load()`` raises, once it is checked to start as ``says`` does for ``path``."""
    with pytest.raises(InputError) as refused:
        load()
    assert str(refused.value).startswith(says.replace("{path}", str(path)))
    return str(refused.value)


@pytest.mark.parametrize("name, edit, verdict, says", CONFIG_EDITS, ids=[row[0] for row in CONFIG_EDITS])
def test_load_config_and_calibrate_give_the_edit_its_verdict(tmp_path, capsys, name, edit, verdict, says):
    path, out = tmp_path / "config.json", tmp_path / "out" / "calibration.json"
    _place(path, edit(copy.deepcopy(BASE_CONFIG)))
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


@pytest.fixture(scope="module")
def base_config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("base") / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


@pytest.mark.parametrize("name, edit, verdict, says", SNAPSHOT_EDITS, ids=[row[0] for row in SNAPSHOT_EDITS])
def test_snapshot_load_run_and_sweep_give_the_edit_its_verdict(base_config_file, tmp_path, monkeypatch, capsys, name, edit, verdict, says):
    path, trace, sweep = tmp_path / "calibration.json", tmp_path / "trace.jsonl", tmp_path / "sweep"
    _place(path, edit(copy.deepcopy(BASE_SNAPSHOT)))
    if verdict == ACCEPTED:
        CalibrationSnapshot.load(str(path), CONFIG)
    else:
        message = _check_refusal(lambda: CalibrationSnapshot.load(str(path), CONFIG), path, says)
    monkeypatch.setattr(rollout, "_workers", lambda: 1)  # so that the recorders see every batch
    runs = record_calls(monkeypatch, cli, "run_condition", lambda *args, **kwargs: None)
    batches = record_calls(monkeypatch, rollout, "run_cells", batch_cell_ids)
    argv = ["--config", base_config_file, "--snapshot", str(path)]
    for command, out in ((["run", *argv, "--out", str(trace)], trace), (["sweep", *argv, "--out-dir", str(sweep)], sweep)):
        done = main(command)
        err = capsys.readouterr().err
        if verdict == ACCEPTED:
            assert done == 0 and err == "" and out.exists()
        else:
            assert done == 1 and err == f"error: {message}\n" and not out.exists() and runs == batches == []
