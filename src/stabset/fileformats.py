"""Plain-text set and witness files.

Set file ("stabset v1"): a version line, a group line ("group f2 n=<n>" or
"group z"), then one element per line; F2 elements are bitstrings with
coordinate 1 leftmost, integer elements signed decimals.  Witness files
("stabwit v1") add a "k=<k>" line and then k lines "s <elem>" followed by
k lines "t <elem>" in order.  Serialization is canonical (elements sorted),
so canonical files round-trip byte-identically.
"""

from __future__ import annotations


from stabset.gf2 import BitVector
from stabset.orderprop import AMBIENT_Z, Ambient, FiniteSet, Witness, ambient_f2

SET_MAGIC = "stabset v1"
WITNESS_MAGIC = "stabwit v1"


class ParseError(ValueError):
    pass


def _group_line(ambient: Ambient) -> str:
    if ambient.kind == "f2":
        return f"group f2 n={ambient.n}"
    return "group z"


def _parse_group_line(line: str) -> Ambient:
    parts = line.split()
    if parts == ["group", "z"]:
        return AMBIENT_Z
    if len(parts) == 3 and parts[0] == "group" and parts[1] == "f2":
        if not parts[2].startswith("n="):
            raise ParseError(f"bad group line: {line!r}")
        try:
            return ambient_f2(int(parts[2][2:]))
        except ValueError as exc:
            raise ParseError(f"bad group line: {line!r}") from exc
    raise ParseError(f"bad group line: {line!r}")


def _parse_element(token: str, ambient: Ambient):
    if ambient.kind == "f2":
        if len(token) != ambient.n or token.strip("01"):
            raise ParseError(f"bad F2^{ambient.n} element: {token!r}")
        return BitVector(ambient.n, int(token[::-1], 2))
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad integer element: {token!r}") from exc


def _format_element(x, ambient: Ambient) -> str:
    if ambient.kind == "f2":
        return x.to_string()
    return str(x)


def serialize_set(A: FiniteSet) -> str:
    lines = [SET_MAGIC, _group_line(A.ambient)]
    if A.ambient.kind == "f2":
        # the canonical bitstrings sort in the library's order on F2^n
        lines.extend(sorted(x.to_string() for x in A.elements))
    else:
        lines.extend(str(x) for x in sorted(A.elements))
    return "\n".join(lines) + "\n"


def parse_set(text: str) -> FiniteSet:
    lines = text.splitlines()
    if not lines or lines[0] != SET_MAGIC:
        raise ParseError(f"missing {SET_MAGIC!r} header")
    if len(lines) < 2:
        raise ParseError("missing group line")
    ambient = _parse_group_line(lines[1])
    f2 = ambient.kind == "f2"
    elements = []
    seen = set()  # the ints of the elements so far
    for line in lines[2:]:
        token = line.strip()
        if not token:
            continue
        x = _parse_element(token, ambient)
        value = x.bits if f2 else x
        if value in seen:
            raise ParseError(f"duplicate element: {token!r}")
        seen.add(value)
        elements.append(x)
    return FiniteSet(ambient, frozenset(elements))


def serialize_witness(w: Witness) -> str:
    lines = [WITNESS_MAGIC, _group_line(w.ambient), f"k={w.k}"]
    lines.extend(f"s {_format_element(x, w.ambient)}" for x in w.s)
    lines.extend(f"t {_format_element(x, w.ambient)}" for x in w.t)
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> Witness:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != WITNESS_MAGIC:
        raise ParseError(f"missing {WITNESS_MAGIC!r} header")
    if len(lines) < 3:
        raise ParseError("missing group or k line")
    ambient = _parse_group_line(lines[1])
    if not lines[2].startswith("k="):
        raise ParseError(f"bad order line: {lines[2]!r}")
    try:
        k = int(lines[2][2:])
    except ValueError as exc:
        raise ParseError(f"bad order line: {lines[2]!r}") from exc
    if k < 0:
        raise ParseError("negative order")
    body = lines[3:]
    if len(body) != 2 * k:
        raise ParseError(f"expected {2 * k} entry lines, found {len(body)}")
    s_entries = []
    t_entries = []
    for idx, line in enumerate(body):
        role = "s" if idx < k else "t"
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or parts[0] != role:
            raise ParseError(f"expected '{role} <elem>' at entry line {idx + 1}: {line!r}")
        value = _parse_element(parts[1].strip(), ambient)
        (s_entries if role == "s" else t_entries).append(value)
    try:
        return Witness(ambient, tuple(s_entries), tuple(t_entries))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def read_set(path) -> FiniteSet:
    with open(path, "r", encoding="ascii") as fh:
        return parse_set(fh.read())


def write_set(path, A: FiniteSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_set(A))


def read_witness(path) -> Witness:
    with open(path, "r", encoding="ascii") as fh:
        return parse_witness(fh.read())


def write_witness(path, w: Witness) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_witness(w))
