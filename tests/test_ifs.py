from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favardlab.errors import ConfigError
from favardlab.favard import favard
from favardlab.ifs import (
    IFS2D,
    Similitude2D,
    dumps_config,
    four_corner,
    load_config,
    loads_config,
    preset,
    sierpinski_gasket,
    sparse_corner,
    validate,
)
from favardlab.projection import Direction, project_ifs


class TestTypes:
    def test_similitude_validates_ratio(self):
        with pytest.raises(ValueError):
            Similitude2D.of(1, 0, 0)
        with pytest.raises(ValueError):
            Similitude2D.of(0, 0, 0)
        with pytest.raises(ValueError):
            Similitude2D.of(Fraction(5, 4), 0, 0)

    def test_ifs_needs_two_maps(self):
        m = Similitude2D.of(Fraction(1, 2), 0, 0)
        with pytest.raises(ValueError):
            IFS2D("one", (m,), (0, 0, 1, 1))

    def test_ifs_needs_positive_base(self):
        m = Similitude2D.of(Fraction(1, 2), 0, 0)
        with pytest.raises(ValueError):
            IFS2D("flat", (m, m), (0, 0, 1, 0))

    def test_numbers_stored_exactly(self):
        # ints, floats and strings become Fractions, floats exactly
        m = Similitude2D(0.5, (0, "3/4"))
        assert (m.ratio, m.translation) == (Fraction(1, 2), (0, Fraction(3, 4)))
        assert all(type(v) is Fraction for v in (m.ratio, *m.translation))
        assert Similitude2D(0.1, (0, 0)).ratio == Fraction(0.1) != Fraction(1, 10)
        ints = IFS2D("x", (m, Similitude2D.of("1/2", "1/2", "1/2")), (0, 0, 1, 1))
        twin = IFS2D("x", ints.maps, tuple(Fraction(v) for v in (0, 0, 1, 1)))
        assert all(type(v) is Fraction for v in ints.base)
        assert ints == twin and hash(ints) == hash(twin)
        assert dumps_config(ints) == dumps_config(twin)

    @pytest.mark.parametrize("field, make", [
        ("ratio", lambda v: Similitude2D(v, (0, 0))),
        ("translation", lambda v: Similitude2D(0.5, (0, v))),
        ("base", lambda v: IFS2D("x", four_corner().maps, (0, 0, v, 1))),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1/0", "x"])
    def test_non_finite_numbers_rejected(self, field, make, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite"):
            make(value)

    @pytest.mark.parametrize("maps, base", [
        # the swap of the axes keeps the diagonal pair, the reflection not
        ((Similitude2D.of("1/4", 0, 0), Similitude2D.of("1/4", "3/4", "3/4")),
         (0, 0, 1, 1)),
        # the reflection keeps the gasket, the swap not
        (sierpinski_gasket().maps, (0, 0, 1, 1)),
        (four_corner().maps, (0, 0, 1, 2)),
    ], ids=["diagonal-pair", "gasket", "rectangle"])
    def test_false_dihedral_claim_rejected(self, maps, base):
        # symmetry is derived from the maps; there is no claim to make
        with pytest.raises(TypeError):
            IFS2D("claim", maps, base, dihedral_symmetry=True)
        assert not IFS2D("claim", maps, base).dihedral_symmetry

    def test_dihedral_claim_on_a_shifted_square(self):
        # ratio 1/4 maps fixing the corners of [1, 3] x [2, 4]
        maps = tuple(Similitude2D.of("1/4", Fraction(3, 4) * x, Fraction(3, 4) * y)
                     for x in (1, 3) for y in (2, 4))
        assert IFS2D("shifted", maps, (1, 2, 3, 4)).dihedral_symmetry
        assert not IFS2D("shifted", maps[:3], (1, 2, 3, 4)).dihedral_symmetry

    def test_ratio_sum_and_convexity_flag(self):
        assert four_corner().ratio_sum == 1
        assert four_corner().convexity_applies
        assert sierpinski_gasket().ratio_sum == Fraction(3, 2)
        assert not sierpinski_gasket().convexity_applies
        assert sparse_corner(8).ratio_sum == Fraction(1, 2)


fractions = st.fractions(min_value=-2, max_value=2, max_denominator=16)
sides = st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=16)
ratios = st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16),
                      max_denominator=16)
# where an image sits along each axis, as a share of the room r*B leaves
# in B: 0..1 keeps it inside, a little beyond lets it out
shares = st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(5, 4),
                      max_denominator=8)


@st.composite
def systems(draw):
    x0, y0 = draw(fractions), draw(fractions)
    w, h = draw(sides), draw(sides)
    maps = []
    for _ in range(draw(st.integers(2, 4))):
        r = draw(ratios)
        u, v = draw(shares), draw(shares)
        maps.append(Similitude2D(r, (x0 + u * (1 - r) * w - r * x0,
                                     y0 + v * (1 - r) * h - r * y0)))
    return IFS2D("random", tuple(maps), (x0, y0, x0 + w, y0 + h))


def _projected_images_inside(ifs, d):
    proj = project_ifs(ifs, d)
    lo, hi = proj.base
    return all(lo <= r * lo + t and r * hi + t <= hi for r, t in proj.maps)


class TestNests:
    @given(systems(), st.lists(st.tuples(
        st.sampled_from("xy"),
        st.fractions(min_value=-1, max_value=1, max_denominator=50)),
        min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_exact_against_projections(self, ifs, directions):
        axes = [Direction("x", 0), Direction("y", 0)]
        if ifs.nests:
            for chart, slope in directions:
                assert _projected_images_inside(ifs, Direction(chart, slope))
            assert all(_projected_images_inside(ifs, d) for d in axes)
        else:
            assert not all(_projected_images_inside(ifs, d) for d in axes)
        assert validate(ifs).nesting == ifs.nests


class TestPresets:
    def test_four_corner_shape(self):
        fc = four_corner()
        assert fc.name == "four-corner"
        assert fc.base == (0, 0, 1, 1)
        assert fc.branching == 4
        assert all(m.ratio == Fraction(1, 4) for m in fc.maps)
        assert [m.translation for m in fc.maps] == [
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(3, 4)),
            (Fraction(3, 4), Fraction(0)),
            (Fraction(3, 4), Fraction(3, 4)),
        ]
        assert all(type(v) is Fraction for m in fc.maps
                   for v in (m.ratio, *m.translation))
        assert fc.dihedral_symmetry

    def test_sparse_corner_shape(self):
        sc = sparse_corner(8)
        assert sc.branching == 4
        assert all(m.ratio == Fraction(1, 8) for m in sc.maps)
        assert {m.translation for m in sc.maps} == {
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(7, 8)),
            (Fraction(7, 8), Fraction(0)),
            (Fraction(7, 8), Fraction(7, 8)),
        }

    def test_sparse_corner_requires_k_above_4(self):
        with pytest.raises(ValueError):
            sparse_corner(4)
        with pytest.raises(ValueError):
            sparse_corner(3)

    def test_gasket_shape(self):
        g = sierpinski_gasket()
        assert g.branching == 3
        assert not g.dihedral_symmetry

    def test_preset_lookup(self):
        assert preset("four-corner") == four_corner()
        assert preset("sparse-corner(6)") == sparse_corner(6)
        assert preset("sierpinski-gasket") == sierpinski_gasket()
        with pytest.raises(ValueError):
            preset("moth-eaten-carpet")


class TestValidate:
    def test_four_corner_report(self):
        rep = validate(four_corner())
        assert rep.ratio_sum_is_one
        assert rep.convexity_applies
        assert rep.nesting
        assert rep.cylinder_counts[0] == 1
        assert rep.cylinder_counts[1] == 4

    def test_gasket_report_is_report_only(self):
        rep = validate(sierpinski_gasket())
        assert not rep.convexity_applies
        assert rep.nesting

    def test_escaping_ifs_fails_nesting(self):
        maps = (Similitude2D.of(Fraction(1, 2), 0, 0),
                Similitude2D.of(Fraction(1, 2), Fraction(3, 4), 0))
        rep = validate(IFS2D("escape", maps, (0, 0, 1, 1)))
        assert not rep.nesting
        assert rep.ratio_sum_is_one
        assert not rep.convexity_applies


class TestConfig:
    def test_round_trip_presets(self):
        for ifs in (four_corner(), sparse_corner(8), sierpinski_gasket()):
            assert loads_config(dumps_config(ifs)) == ifs

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "fc.cfg"
        path.write_text(dumps_config(four_corner()), encoding="utf-8")
        assert load_config(path) == four_corner()

    def test_minimal_config(self):
        text = """
        name = twin
        base = [0, 0, 1, 1]
        map { ratio = "1/2", translate = ["0", "0"] }
        map { ratio = "1/2", translate = ["1/2", "1/2"] }
        """
        ifs = loads_config(text)
        assert ifs.name == "twin"
        assert ifs.branching == 2
        assert not ifs.dihedral_symmetry

    def test_symmetry_flag(self):
        # four-corner with its maps shuffled and no symmetry line
        text = """
        name = sym
        base = [0, 0, 1, 1]
        map { ratio = "1/4", translate = ["3/4", "0"] }
        map { ratio = "1/4", translate = ["0", "3/4"] }
        map { ratio = "1/4", translate = ["3/4", "3/4"] }
        map { ratio = "1/4", translate = ["0", "0"] }
        """
        ifs = loads_config(text)
        assert ifs.dihedral_symmetry
        got, want = favard(ifs, 2), favard(four_corner(), 2)
        assert got.value == pytest.approx(want.value, abs=1e-12)
        assert got.panels == want.panels

    @pytest.mark.parametrize("value", ["dihedrla", "none", "true"])
    def test_symmetry_value_checked(self, value):
        # symmetry is detected from the maps, so the key is unknown
        lines = dumps_config(four_corner()).splitlines()
        lines.insert(2, f"symmetry = {value}")
        with pytest.raises(ConfigError, match="line 3: unknown key 'symmetry'"):
            loads_config("\n".join(lines))

    def test_false_dihedral_claim_in_config_rejected(self):
        text = dumps_config(sierpinski_gasket()) + "symmetry = dihedral\n"
        with pytest.raises(ConfigError, match="line 6: unknown key 'symmetry'"):
            loads_config(text)

    @pytest.mark.parametrize("lineno, line, message", [
        (2, "base = [0, 0, one, 1]", "cannot parse rational value 'one'"),
        (2, "base = 0, 0, 1, 1", "expected a [ ... ] list, got '0, 0, 1, 1'"),
        (2, "base = [0, 0, 1]", "base needs [x0, y0, x1, y1]"),
        (3, 'map { ratio = "1/2" }', "map block needs ratio and translate"),
        (3, 'map { ratio = "1/2", translate = ["0"] }',
         "translate needs exactly two entries"),
        (4, 'map { ratio = "1/2", translate = ["1/2", "0"]',
         "map block must be map { ... } on one line"),
        (1, "name x", "cannot parse line 'name x'"),
        (3, 'map { ratio = "1/2", translate = ["0","0"], rotaton = 90 }',
         "unknown map field 'rotaton'"),
        (3, 'map { ratio = "1/2", translate = ["0","0"], ratio = "1/3" }',
         "map field 'ratio' given twice"),
        (4, 'map { ratio = "1/2", translate = ["0","0"], translate = ["1/2","0"] }',
         "map field 'translate' given twice"),
        (3, "name = y", "name given twice"),
        (3, "base = [0, 0, 2, 2]", "base given twice"),
    ], ids=["value", "list", "base-length", "map-fields", "translate-length",
            "map-braces", "line", "map-unknown-field", "map-repeated-ratio",
            "map-repeated-translate", "repeated-name", "repeated-base"])
    def test_error_branches(self, lineno, line, message):
        lines = ["name = x", "base = [0, 0, 1, 1]",
                 'map { ratio = "1/2", translate = ["0", "0"] }',
                 'map { ratio = "1/2", translate = ["1/2", "0"] }']
        loads_config("\n".join(lines))
        lines[lineno - 1] = line
        with pytest.raises(ConfigError) as exc:
            loads_config("\n".join(lines))
        assert str(exc.value).startswith(f"line {lineno}: {message}")

    def test_errors_carry_line_numbers(self):
        bad = "name = x\nbase = [0, 0, 1, 1]\nmap { ratio = \"2\", translate = [\"0\", \"0\"] }\nmap { ratio = \"1/2\", translate = [\"0\", \"0\"] }\n"
        with pytest.raises(ConfigError) as exc:
            loads_config(bad)
        assert "line 3" in str(exc.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("name = x\nbase = [0,0,1,1]\nflavor = mint\n"
                         'map { ratio = "1/2", translate = ["0","0"] }\n'
                         'map { ratio = "1/2", translate = ["0","0"] }\n')

    def test_rotation_reserved(self):
        text = ('name = x\nbase = [0,0,1,1]\n'
                'map { ratio = "1/2", translate = ["0","0"], rotation = "1" }\n'
                'map { ratio = "1/2", translate = ["0","0"] }\n')
        with pytest.raises(ConfigError):
            loads_config(text)

    def test_missing_base_rejected(self):
        with pytest.raises(ConfigError):
            loads_config('name = x\n'
                         'map { ratio = "1/2", translate = ["0","0"] }\n'
                         'map { ratio = "1/2", translate = ["0","0"] }\n')
