"""Freezing configuration: a small grammar over parameter-tree names.

Spec strings are comma-separated tokens:

    -                      nothing frozen
    emb.base               word/position/token-type embedding tables
    emb                    the above plus the embedding LayerNorm
    B{i}                   whole transformer block i
    B{i}-{j}               blocks i..j inclusive
    B{i}a                  the full attention sub-block of block i
    B{i}a,i                ... plus intermediate.dense
    B{i}a,i,od             ... plus output.dense
    suffix:{name}          encoder.layer.{k}.{name} for every block k

`B{i}a` freezes the whole attention sub-block including its output
LayerNorm. Each token stands for name patterns (regexes anchored at the start
of a parameter name, one per block of a range); a spec freezes the names they
match, and every pattern must match some name, so an out-of-range block or a
suffix no block has is an error. Frozen names are left out of the optimizer's
trainable set, so frozen entries stay bit-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple


class FreezeSpecError(ValueError):
    pass


@dataclass(frozen=True)
class FreezeToken:
    text: str                       # canonical form
    patterns: Tuple[str, ...]       # regexes matched at the start of a name


@dataclass(frozen=True)
class FreezeSpec:
    tokens: Tuple[FreezeToken, ...]


_NAMED = {
    "-": (),
    "emb.base": (r"embeddings\.\w+_embeddings\.",),
    "emb": (r"embeddings\.",),
}
_PARTS = {"a": r"attention\.", "i": r"intermediate\.", "od": r"output\.dense\."}
_BLOCK_RE = re.compile(r"^B(\d+)(?:-(\d+))?$")
_BLOCK_PART_RE = re.compile(r"^B(\d+)a$")


def _block(i: int) -> str:
    return rf"encoder\.layer\.{i}\."


def _parts_token(i: int, parts: Sequence[str]) -> FreezeToken:
    return FreezeToken(f"B{i}" + ",".join(parts), tuple(_block(i) + _PARTS[p] for p in parts))


def _token(piece: str) -> FreezeToken:
    if piece in _NAMED:
        return FreezeToken(piece, _NAMED[piece])
    if piece.startswith("suffix:"):
        suffix = piece[len("suffix:"):]
        if not suffix:
            raise FreezeSpecError("empty suffix in freeze spec")
        return FreezeToken(piece, (r"encoder\.layer\.\d+\." + re.escape(suffix) + "$",))
    m = _BLOCK_RE.match(piece)
    if not m:
        raise FreezeSpecError(f"unknown freeze token {piece!r}")
    i = int(m.group(1))
    if m.group(2) is None:
        return FreezeToken(f"B{i}", (_block(i),))
    j = int(m.group(2))
    if j < i:
        raise FreezeSpecError(f"descending block range in {piece!r}")
    return FreezeToken(f"B{i}-{j}", tuple(_block(k) for k in range(i, j + 1)))


def parse_freeze_spec(text: str) -> FreezeSpec:
    tokens: List[FreezeToken] = []
    block, parts = -1, []           # block and parts of a trailing B{i}a[,i[,od]]
    for piece in (p.strip() for p in text.split(",")):
        if piece == "":
            raise FreezeSpecError(f"empty token in freeze spec {text!r}")
        if piece in ("i", "od") and parts:
            if piece in parts:
                raise FreezeSpecError(f"duplicate part {piece!r} in {text!r}")
            if piece == "od" and "i" not in parts:
                raise FreezeSpecError(f"'od' requires 'i' first in {text!r}")
            parts.append(piece)
            tokens[-1] = _parts_token(block, parts)
            continue
        m = _BLOCK_PART_RE.match(piece)
        if m:
            block, parts = int(m.group(1)), ["a"]
            tokens.append(_parts_token(block, parts))
            continue
        parts = []
        tokens.append(_token(piece))
    if len(tokens) > 1 and any(t.text == "-" for t in tokens):
        raise FreezeSpecError("'-' cannot be combined with other tokens")
    return FreezeSpec(tuple(tokens))


def resolve(spec: FreezeSpec, param_names: Iterable[str]) -> Set[str]:
    """The frozen name set: every name that one of the spec's patterns
    matches. A pattern that matches no name raises FreezeSpecError, naming
    the block the model lacks when the pattern is one of a block's."""
    names = list(param_names)
    frozen: Set[str] = set()
    for tok in spec.tokens:
        for pattern in tok.patterns:
            matched = [n for n in names if re.match(pattern, n)]
            if not matched:
                block = re.match(r"encoder\\\.layer\\\.(\d+)", pattern)
                lacks = f"block {block[1]}" if block else f"parameter name matching {pattern}"
                raise FreezeSpecError(f"{tok.text!r}: the model has no {lacks}")
            frozen.update(matched)
    return frozen


def trainable_names(spec: FreezeSpec, param_names: Iterable[str]) -> List[str]:
    names = list(param_names)
    frozen = resolve(spec, names)
    return [n for n in names if n not in frozen]
