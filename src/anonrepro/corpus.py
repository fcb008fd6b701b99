"""The built-in oracle corpus.

Each corpus entry packages a bug oracle together with the input that is
known to trigger it, the technique configurations it is usually studied
under, and provenance metadata about the real app fault it mirrors.  Entries
whose fault description was too vague to encode exactly carry
``metadata["approximate"] = true`` and a note saying how the trigger was
approximated.

Entries live as JSON files in the packaged ``corpus/`` directory; the
``ANONREPRO_CORPUS`` environment variable points the loader somewhere else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import OracleError, ValidationError
from .model import (
    DataValue,
    check_keys,
    check_type,
    conforms,
    decode_json,
    value_from_json,
    value_to_json,
)
from .oracles import BugOracle, evaluate, oracle_from_json, oracle_to_json
from .techniques import TechniqueConfig, config_from_json, config_to_json

ENV_CORPUS_DIR = "ANONREPRO_CORPUS"

_ENTRY_KEYS = ("name", "description", "fields", "predicate", "original", "configs", "metadata")


@dataclass(frozen=True)
class CorpusEntry:
    oracle: BugOracle
    original: tuple[tuple[str, DataValue], ...]
    configs: tuple[TechniqueConfig, ...]
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "original", tuple(self.original))
        object.__setattr__(self, "configs", tuple(self.configs))
        names = [n for n, _ in self.original]
        if names != list(self.oracle.field_names):
            raise OracleError(
                f"entry {self.name!r}: original fields {names} do not match "
                f"oracle fields {list(self.oracle.field_names)}"
            )
        for name, value in self.original:
            if not conforms(value, self.oracle.domain_of(name)):
                raise OracleError(
                    f"entry {self.name!r}: original {name!r} value outside its domain"
                )

    @property
    def name(self) -> str:
        return self.oracle.name

    @property
    def original_assignment(self) -> dict[str, DataValue]:
        return dict(self.original)

    def triggers(self) -> bool:
        """Whether the recorded original input actually trips the oracle."""
        return evaluate(self.oracle, self.original_assignment)


def entry_to_json(entry: CorpusEntry) -> dict[str, Any]:
    out = oracle_to_json(entry.oracle)
    out["original"] = {name: value_to_json(v) for name, v in entry.original}
    out["configs"] = [config_to_json(c) for c in entry.configs]
    out["metadata"] = dict(entry.metadata)
    return out


def entry_from_json(raw: Any) -> CorpusEntry:
    if not isinstance(raw, dict):
        raise OracleError(f"a corpus entry is a JSON object, got {raw!r}")
    oracle = oracle_from_json(raw)
    where = f"entry {oracle.name!r}"
    check_keys(raw, _ENTRY_KEYS, where, OracleError)
    if "original" not in raw:
        raise OracleError(f"{where} has no original input")
    raw_original = check_type(raw["original"], (dict,), where, "original", OracleError)
    missing = [name for name in oracle.field_names if name not in raw_original]
    if missing:
        raise OracleError(
            f"{where}: original input has no value for field(s) "
            f"{', '.join(map(repr, missing))}"
        )
    extra = [name for name in raw_original if name not in oracle.field_names]
    if extra:
        raise OracleError(
            f"{where}: 'original' names field(s) {', '.join(map(repr, extra))} "
            f"that the oracle does not have"
        )
    original = tuple(
        (name, value_from_json(raw_original[name], domain))
        for name, domain in oracle.fields
    )
    configs = check_type(raw.get("configs", []), (list,), where, "configs", OracleError)
    metadata = check_type(raw.get("metadata", {}), (dict,), where, "metadata", OracleError)
    return CorpusEntry(
        oracle=oracle,
        original=original,
        configs=tuple(map(config_from_json, configs)),
        metadata=metadata,
    )


def corpus_dir() -> Path | None:
    """Directory overriding the packaged corpus, if configured."""
    override = os.environ.get(ENV_CORPUS_DIR)
    return Path(override) if override else None


def _iter_sources():
    directory = corpus_dir()
    if directory is not None:
        for path in sorted(directory.glob("*.json")):
            yield path.stem, path
    else:
        root = resources.files(__package__) / "corpus"
        for item in sorted(root.iterdir(), key=lambda i: i.name):
            if item.name.endswith(".json"):
                yield item.name[: -len(".json")], item


def _read(file: Any) -> str:
    """An entry file's text, read as UTF-8."""
    try:
        return file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OracleError(f"cannot read oracle file {str(file)!r}: {exc}") from exc


def available() -> list[str]:
    """Names of every corpus entry, sorted."""
    return [name for name, _ in _iter_sources()]


def _parse(text: str, source: str) -> CorpusEntry:
    try:
        return entry_from_json(decode_json(text, OracleError))
    except ValidationError as exc:
        raise type(exc)(f"oracle file {source!r}: {exc}") from exc


def load(name_or_path: str) -> CorpusEntry:
    """Load one entry by corpus name or by path to an entry file."""
    candidate = Path(name_or_path)
    if name_or_path.endswith(".json") or candidate.is_file():
        return _parse(_read(candidate), name_or_path)
    for name, file in _iter_sources():
        if name == name_or_path:
            return _parse(_read(file), f"{name}.json")
    raise OracleError(
        f"no corpus entry named {name_or_path!r}; available: {', '.join(available())}"
    )


def load_all() -> list[CorpusEntry]:
    return [_parse(_read(file), f"{name}.json") for name, file in _iter_sources()]
