"""Tests for PLA parsing and writing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.pla import PlaError, parse_pla, read_pla, spec_to_pla, write_pla

SIMPLE_FD = """\
# a comment
.i 3
.o 2
.ilb a b c
.ob f g
.type fd
.p 3
01- 1-
111 01
000 -0
.e
"""


class TestParser:
    def test_fd_semantics(self):
        spec = parse_pla(SIMPLE_FD)
        assert spec.num_inputs == 3
        assert spec.num_outputs == 2
        assert spec.input_names == ("a", "b", "c")
        # cube 01- covers minterms with a=0,b=1: indices 0b010=2 and 0b110=6.
        assert spec.phases[0, 2] == ON and spec.phases[0, 6] == ON
        assert spec.phases[1, 2] == DC and spec.phases[1, 6] == DC
        assert spec.phases[0, 7] == OFF  # 111 -> 01: no info for f under fd
        assert spec.phases[1, 7] == ON
        assert spec.phases[0, 0] == DC  # 000 -0
        assert spec.phases[1, 0] == OFF

    def test_input_cube_expansion(self):
        spec = parse_pla(".i 2\n.o 1\n-- 1\n.e\n")
        assert list(spec.on_set(0)) == [0, 1, 2, 3]

    def test_f_type_ignores_dash_outputs(self):
        spec = parse_pla(".i 2\n.o 1\n.type f\n11 1\n00 1\n")
        assert list(spec.on_set(0)) == [0, 3]
        assert spec.is_fully_specified

    def test_fr_type(self):
        spec = parse_pla(".i 2\n.o 1\n.type fr\n11 1\n00 0\n")
        assert spec.phases[0, 3] == ON
        assert spec.phases[0, 0] == OFF
        assert spec.phases[0, 1] == DC
        assert spec.phases[0, 2] == DC

    def test_fr_conflict(self):
        with pytest.raises(PlaError, match="both"):
            parse_pla(".i 2\n.o 1\n.type fr\n11 1\n11 0\n")

    def test_fdr_requires_cover(self):
        with pytest.raises(PlaError, match="not covered"):
            parse_pla(".i 2\n.o 1\n.type fdr\n11 1\n00 0\n")

    def test_missing_io(self):
        with pytest.raises(PlaError, match="missing"):
            parse_pla("11 1\n")
        with pytest.raises(PlaError, match="^line 1: cube line before .i"):
            parse_pla("111\n.i 2\n.o 1\n")
        with pytest.raises(PlaError, match="^line 2: cube line before .i"):
            parse_pla("# header\n1 1 1\n.i 2\n.o 1\n")
        for text, line in ((".i\n.o 1\n", 1), (".i 2\n.o\n", 2),
                           (".i 2\n.o 1\n.type\n", 3)):
            with pytest.raises(PlaError, match=f"^line {line}: .* needs a value"):
                parse_pla(text)

    def test_bad_width(self):
        with pytest.raises(PlaError, match="^line 3: input plane '11' has wrong width"):
            parse_pla(".i 3\n.o 1\n11 1\n")
        with pytest.raises(PlaError, match="^line 5: input plane '10' has wrong width"):
            parse_pla(".i 3\n.o 1\n111 1\n\n10 1\n")
        with pytest.raises(PlaError, match="^line 3: output plane '11' has wrong width"):
            parse_pla(".i 2\n.o 1\n11 11\n")

    def test_bad_characters(self):
        with pytest.raises(PlaError, match="^line 3: bad input character in 'x1'"):
            parse_pla(".i 2\n.o 1\nx1 1\n")
        with pytest.raises(PlaError, match="^line 4: bad input character in '1x'"):
            parse_pla(".i 2\n.o 1\n11 1  # ok\n1x 1\n")
        with pytest.raises(PlaError, match="^line 3: bad output character 'x'"):
            parse_pla(".i 2\n.o 1\n11 x\n")
        for text, line in ((".i x\n.o 1\n", 1), (".i -2\n.o 1\n", 1),
                           (".i 2\n.o 1.5\n", 2)):
            with pytest.raises(PlaError, match=f"^line {line}: .* non-negative integer"):
                parse_pla(text)

    def test_unknown_type(self):
        with pytest.raises(PlaError, match="^line 3: unsupported .type 'q'"):
            parse_pla(".i 2\n.o 1\n.type q\n")
        with pytest.raises(PlaError, match="^line 4: unsupported .type 'zz'"):
            parse_pla(".i 2\n.o 1\n\n.type zz\n")
        with pytest.raises(PlaError, match="^line 2: unsupported directive '.mv'"):
            parse_pla(".i 2\n.mv 3\n.o 1\n")

    def test_name_count_mismatch(self):
        with pytest.raises(PlaError, match="^line 3: .ilb lists 2 names for 4"):
            parse_pla(".i 4\n.o 1\n.ilb a b\n")
        with pytest.raises(PlaError, match="^line 4: .ob lists 2 names for 1"):
            parse_pla(".i 2\n.o 1\n\n.ob f g\n")

    def test_joined_planes(self):
        spec = parse_pla(".i 2\n.o 1\n111\n.e\n")
        assert list(spec.on_set(0)) == [3]


class TestWriter:
    def test_round_trip(self):
        spec = parse_pla(SIMPLE_FD, name="demo")
        again = parse_pla(spec_to_pla(spec), name="demo")
        assert again == spec
        assert again.input_names == spec.input_names

    def test_file_round_trip(self, tmp_path):
        spec = parse_pla(SIMPLE_FD)
        path = tmp_path / "demo.pla"
        write_pla(spec, path)
        assert read_pla(path) == spec
        assert read_pla(path).name == "demo"

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        phases = rng.integers(0, 3, size=(m, 1 << n)).astype(np.uint8)
        spec = FunctionSpec(phases)
        assert parse_pla(spec_to_pla(spec)) == spec


_NAME = st.text("abcxyz019_[]", min_size=1, max_size=4)
_SOUP_LINE = st.one_of(
    st.tuples(
        st.sampled_from([".i", ".o", ".p", ".type", ".ilb", ".ob", ".mv"]),
        st.lists(
            st.sampled_from(["0", "1", "2", "3", "5", "-1", "x", "f", "fd",
                             "fr", "fdr", "a", "b"]),
            max_size=4,
        ),
    ).map(lambda t: " ".join([t[0], *t[1]])),
    st.sampled_from([".e", ".end", "", "# note", ".i 2 # c"]),
    st.lists(st.text("01-2~34x", max_size=6), min_size=1, max_size=3)
    .map(" ".join),
)


_HEADER = st.lists(
    st.sampled_from([".i 0", ".i 1", ".i 2", ".i 3", ".o 1", ".o 2",
                     ".ilb a b", ".ob f"]),
    max_size=4,
)


class TestFuzz:
    @given(_HEADER, st.lists(_SOUP_LINE, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_soup_raises_only_pla_error(self, header, lines):
        """Directive and cube soup either parses or fails as PlaError,
        never with another exception type."""
        try:
            spec = parse_pla("\n".join(header + lines))
        except PlaError:
            return
        assert isinstance(spec, FunctionSpec)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_keeps_phases_and_names(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 3))
        phases = data.draw(
            st.lists(st.sampled_from([OFF, ON, DC]), min_size=m << n,
                     max_size=m << n)
        )
        spec = FunctionSpec(
            np.array(phases, dtype=np.uint8).reshape(m, 1 << n),
            input_names=tuple(data.draw(
                st.lists(_NAME, min_size=n, max_size=n))),
            output_names=tuple(data.draw(
                st.lists(_NAME, min_size=m, max_size=m))),
        )
        again = parse_pla(spec_to_pla(spec))
        np.testing.assert_array_equal(again.phases, spec.phases)
        assert again.input_names == spec.input_names
        assert again.output_names == spec.output_names
