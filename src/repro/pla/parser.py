"""Parser for the Berkeley/espresso ``.pla`` format.

Supported directives: ``.i``, ``.o``, ``.ilb``, ``.ob``, ``.p``, ``.type``,
``.e``/``.end``.  Supported logic types (the ``.type`` values espresso
defines for two-level specs):

* ``f``  — cubes list the on-set only; everything else is off.
* ``fd`` — output ``1`` adds to the on-set, ``-`` (or ``2``) to the DC set,
  ``0``/``~`` says nothing (default).  This is espresso's default type and
  the one the paper's benchmarks use.
* ``fr`` — ``1`` adds to the on-set, ``0`` to the off-set; minterms covered
  by neither are don't cares.
* ``fdr`` — all three sets are explicit; uncovered minterms are an error.

Input-plane characters are ``0``, ``1`` and ``-`` (a cube).  Cubes are
expanded into dense phase arrays, so the parser is intended for the
benchmark scale of the paper (functions of up to ~20 inputs).
"""

from __future__ import annotations

import os

import numpy as np

from ..core.spec import FunctionSpec
from ..core.truthtable import DC, OFF, ON

__all__ = ["PlaError", "parse_pla", "read_pla"]

_INPUT_CODES = {"0": 0, "1": 1, "-": 2, "2": 2}
_OUTPUT_CODES = {"0": "0", "1": "1", "-": "-", "2": "-", "~": "~", "4": "1", "3": "0"}


class PlaError(ValueError):
    """Raised on malformed PLA text or inconsistent cube planes.

    :func:`read_pla` sets :attr:`path` to the offending file.
    """

    path: str | None = None


def _cube_minterms(cube: list[int], num_inputs: int) -> np.ndarray:
    """Enumerate the minterm indices covered by an input cube."""
    free = [j for j in range(num_inputs) if cube[j] == 2]
    base = 0
    for j in range(num_inputs):
        if cube[j] == 1:
            base |= 1 << j
    if not free:
        return np.array([base], dtype=np.int64)
    combos = np.arange(1 << len(free), dtype=np.int64)
    result = np.full(combos.shape, base, dtype=np.int64)
    for pos, j in enumerate(free):
        result |= ((combos >> pos) & 1) << j
    return result


def parse_pla(text: str, *, name: str = "pla") -> FunctionSpec:
    """Parse PLA *text* into a :class:`FunctionSpec`.

    Raises:
        PlaError: on syntax errors, missing ``.i``/``.o``, plane-length
            or name-count mismatches, or on/off conflicts within the cube
            list.
    """
    num_inputs: int | None = None
    num_outputs: int | None = None
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()
    names_line = {".ilb": 0, ".ob": 0}
    logic_type = "fd"
    cube_lines: list[tuple[int, str, str]] = []  # (line, inputs, outputs)

    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive in (".i", ".o", ".type") and len(parts) < 2:
                raise PlaError(f"line {number}: {directive} needs a value")
            if directive in (".i", ".o") and not parts[1].isdecimal():
                raise PlaError(
                    f"line {number}: {directive} needs a non-negative "
                    f"integer, got {parts[1]!r}"
                )
            if directive == ".i":
                num_inputs = int(parts[1])
            elif directive == ".o":
                num_outputs = int(parts[1])
            elif directive == ".ilb":
                input_names = tuple(parts[1:])
                names_line[directive] = number
            elif directive == ".ob":
                output_names = tuple(parts[1:])
                names_line[directive] = number
            elif directive == ".type":
                logic_type = parts[1]
                if logic_type not in ("f", "fd", "fr", "fdr"):
                    raise PlaError(
                        f"line {number}: unsupported .type {logic_type!r}"
                    )
            elif directive in (".e", ".end"):
                break
            elif directive == ".p":
                pass  # informational cube count
            else:
                raise PlaError(
                    f"line {number}: unsupported directive {directive!r}"
                )
            continue
        fields = line.split()
        if len(fields) == 2:
            cube_lines.append((number, fields[0], fields[1]))
        else:
            if num_inputs is None:
                raise PlaError(f"line {number}: cube line before .i directive")
            joined = "".join(fields)
            cube_lines.append((number, joined[:num_inputs], joined[num_inputs:]))

    if num_inputs is None or num_outputs is None:
        raise PlaError("missing .i or .o directive")
    if num_inputs > 20:
        raise PlaError(f".i {num_inputs} too large for dense representation")
    for directive, names, count, what in (
        (".ilb", input_names, num_inputs, "inputs"),
        (".ob", output_names, num_outputs, "outputs"),
    ):
        if names and len(names) != count:
            raise PlaError(
                f"line {names_line[directive]}: {directive} lists "
                f"{len(names)} names for {count} {what}"
            )

    size = 1 << num_inputs
    on_hit = np.zeros((num_outputs, size), dtype=bool)
    off_hit = np.zeros((num_outputs, size), dtype=bool)
    dc_hit = np.zeros((num_outputs, size), dtype=bool)

    for number, in_plane, out_plane in cube_lines:
        if len(in_plane) != num_inputs:
            raise PlaError(
                f"line {number}: input plane {in_plane!r} has wrong width"
            )
        if len(out_plane) != num_outputs:
            raise PlaError(
                f"line {number}: output plane {out_plane!r} has wrong width"
            )
        try:
            cube = [_INPUT_CODES[ch] for ch in in_plane]
        except KeyError as exc:
            raise PlaError(
                f"line {number}: bad input character in {in_plane!r}"
            ) from exc
        minterms = _cube_minterms(cube, num_inputs)
        for out, ch in enumerate(out_plane):
            code = _OUTPUT_CODES.get(ch)
            if code is None:
                raise PlaError(f"line {number}: bad output character {ch!r}")
            if code == "1":
                on_hit[out, minterms] = True
            elif code == "-":
                dc_hit[out, minterms] = True
            elif code == "0" and logic_type in ("fr", "fdr"):
                off_hit[out, minterms] = True
            # '0' under f/fd and '~' carry no information.

    phases = np.full((num_outputs, size), OFF, dtype=np.uint8)
    if logic_type == "f":
        phases[on_hit] = ON
    elif logic_type == "fd":
        phases[dc_hit] = DC
        phases[on_hit] = ON  # on-set wins over DC on overlap, as in espresso
    elif logic_type == "fr":
        phases[:] = DC
        phases[off_hit] = OFF
        phases[on_hit & off_hit] = OFF  # detect below
        if np.any(on_hit & off_hit):
            raise PlaError("minterm in both on- and off-set (.type fr)")
        phases[on_hit] = ON
    else:  # fdr
        conflicts = (on_hit & off_hit) | (on_hit & dc_hit) | (off_hit & dc_hit)
        if np.any(conflicts):
            raise PlaError("overlapping on/off/dc planes (.type fdr)")
        uncovered = ~(on_hit | off_hit | dc_hit)
        if np.any(uncovered):
            raise PlaError("minterm not covered by any plane (.type fdr)")
        phases[dc_hit] = DC
        phases[on_hit] = ON

    return FunctionSpec(
        phases,
        name=name,
        input_names=input_names or (),
        output_names=output_names or (),
    )


def read_pla(path: str | os.PathLike) -> FunctionSpec:
    """Read a ``.pla`` file from *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    try:
        return parse_pla(text, name=stem)
    except PlaError as exc:
        exc.path = os.fspath(path)
        raise
