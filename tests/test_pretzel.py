import functools
from itertools import accumulate, product

import pytest

from pretzelsurgery import pretzel
from pretzelsurgery.alexander import alexander_skein
from pretzelsurgery.oracle import OracleError
from pretzelsurgery.pretzel import (
    FamilyKind,
    PretzelLink,
    PretzelError,
    determinant,
    family_link,
    is_knot,
    parallel_regions,
    parse,
    parse_montesinos,
    parse_pretzel,
    read,
    tangles,
)
from invariants import at_minus_one
from reference_pretzel import as_pretzel, box_knots
from reference_walk import DIRECTION, walk


class TestParsing:
    def test_parse_basic(self):
        assert parse_pretzel("-2,3,7") == PretzelLink((-2, 3, 7))
        assert parse_pretzel(" -1, -2, 3, 3 ") == PretzelLink((-1, -2, 3, 3))

    def test_parse_rejects(self):
        for bad in ("", "1,,2", "a,b", "1;2"):
            with pytest.raises(PretzelError):
                parse_pretzel(bad)

    @pytest.mark.parametrize(
        "text,parser,error",
        [
            ("-2,3,7", parse_pretzel, None),
            (" P(-2,3,7) ", parse_pretzel, None),
            ("3", parse_pretzel, None),
            ("3/1", parse_montesinos, None),
            ("1;2", parse_montesinos, None),
            ("-1/2;1/3;1/5", parse_montesinos, None),
            ("", None, "bad pretzel parameter list: ''"),
            ("1,,2", None, "bad pretzel parameter list: '1,,2'"),
            ("1/0;1/3", None, "bad tangle fraction: '1/0'"),
            ("a,b", None, "bad pretzel parameter list: 'a,b'"),
        ],
    )
    def test_parse_reads_either_list(self, text, parser, error):
        # a "/" or ";" makes a tangle list, anything else a pretzel list
        if error is None:
            assert parse(text) == parser(text)
        else:
            with pytest.raises(PretzelError) as info:
                parse(text)
            assert str(info.value) == error

    def test_empty_params_rejected(self):
        with pytest.raises(PretzelError):
            PretzelLink(())


class TestComponents:
    # count: the number of components, counted by hand
    @pytest.mark.parametrize(
        "params,count",
        [
            ((3,), 1),          # trefoil
            ((5,), 1),
            ((-2, 3, 7), 1),
            ((3, 5, 7), 1),
            ((2, 2), 2),        # all-even two regions
            ((2, 2, 2), 3),
            ((-1, -2, 3, 3), 1),
            ((-1, -1, 4, 3, 3), 1),
        ],
    )
    def test_component_count(self, params, count):
        assert is_knot(PretzelLink(params)) == (count == 1)

    def test_odd_region_parity_rule(self):
        # a pretzel with two odd and one even region is a knot
        assert is_knot(PretzelLink((-2, 5, 9)))
        # three odd regions close into a knot as well
        assert is_knot(PretzelLink((3, 3, 5)))


class TestOrientationFlags:
    def test_flags_shape(self):
        assert len(parallel_regions(PretzelLink((-2, 3, 7)))) == 3

    def test_knot_flags_consistent_across_arcs(self):
        # each top arc reverses the port flow, so the top chain closes only
        # with an even number of parallel regions (a lone region closes
        # with side arcs instead)
        for n in range(2, 6):
            for params in product(range(-3, 4), repeat=n):
                link = PretzelLink(params)
                if is_knot(link):
                    assert sum(parallel_regions(link)) % 2 == 0, params

    def test_rejects_links(self):
        with pytest.raises(PretzelError):
            parallel_regions(PretzelLink((2, 2)))

    def test_clasp_region_antiparallel(self):
        # in the (-2,p,q) family the even region is the antiparallel clasp
        assert parallel_regions(PretzelLink((-2, 3, 7))) == (False, True, True)


@functools.cache
def _walk_box() -> tuple:
    """The reference strand walk (``reference_walk``, the arbiter of the Fox
    oracle's walk) on every tuple with 1-4 regions in -5..5 and 5 in -3..3:
    (link, None) when the walk rejects the link, else (link, the vertical
    directions of the two passages through the first crossing of each
    nonzero region)."""
    readings = []
    for n, bound in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 3)):
        for params in product(range(-bound, bound + 1), repeat=n):
            link = PretzelLink(params)
            try:
                passages = walk(link)
            except OracleError:
                readings.append((link, None))
                continue
            # crossing ids run region by region
            starts = accumulate((abs(a) for a in params), initial=0)
            first = {start: i for i, (a, start) in enumerate(zip(params, starts)) if a}
            ys: dict[int, list[int]] = {}
            for cid, corner in passages:
                if cid in first:
                    ys.setdefault(first[cid], []).append(DIRECTION[corner][1])
            readings.append((link, ys))
    return tuple(readings)


class TestWalkArbiter:
    """The parity rules against the reference strand walk, which follows
    the diagram crossing by crossing and shares no code with them; it
    labels the same relations as the Fox oracle's walk
    (``test_oracle.py::TestWalkReference``).  Budget 3 s for the 32,911
    tuples; about 1 s on 2 CPUs with Python 3.11."""

    def test_knot_test(self):
        # the walk returns to its start after exactly 2c passages, having
        # walked every closure arc, iff the link is a knot; both is_knot and
        # the parity count in parallel_regions must agree with it
        knots = refused = 0
        for link, ys in _walk_box():
            assert is_knot(link) == (ys is not None), link
            knots += ys is not None
            try:
                flags = parallel_regions(link)
            except PretzelError as exc:
                assert ys is None and str(exc) == f"{link} is not a knot", link
                refused += 1
            else:
                assert ys is not None and len(flags) == link.n_regions, link
        assert (knots, refused) == (10006, 22905)

    def test_flow_rule(self):
        # a region is parallel iff both passages through its first
        # crossing run the same vertical direction; checked on every
        # nonzero region, the unit regions included
        regions = 0
        for link, ys in _walk_box():
            if ys is None:
                continue
            rule = parallel_regions(link)
            for i, (y0, y1) in ys.items():
                assert rule[i] == (y0 == y1), (link, i)
                regions += 1
        assert regions == 41730


class TestFamilyMembership:
    def test_minus_2l(self):
        tag = read(PretzelLink((-4, 5, 7))).tag
        assert tag.kind is FamilyKind.MINUS_2L
        assert (tag.index, tag.p, tag.q) == (2, 5, 7)

    def test_minus2_pq_maps_to_n1(self):
        tag = read(PretzelLink((-2, 3, 7))).tag
        assert tag.kind is FamilyKind.MINUS1_2N
        assert (tag.index, tag.p, tag.q) == (1, 3, 7)

    def test_minus1_2n(self):
        tag = read(PretzelLink((-1, 6, 3, 5))).tag
        assert tag.kind is FamilyKind.MINUS1_2N
        assert (tag.index, tag.p, tag.q) == (3, 3, 5)

    def test_minus1_2n_negative(self):
        tag = read(PretzelLink((-1, -2, 3, 3))).tag
        assert tag.kind is FamilyKind.MINUS1_2N
        assert (tag.index, tag.p, tag.q) == (-1, 3, 3)

    def test_minus1_minus1_2m(self):
        tag = read(PretzelLink((-1, -1, 4, 3, 3))).tag
        assert tag.kind is FamilyKind.MINUS1_MINUS1_2M
        assert (tag.index, tag.p, tag.q) == (2, 3, 3)

    def test_other(self):
        assert read(PretzelLink((3, 5, 7))).tag.kind is FamilyKind.OTHER

    def test_membership_unordered(self):
        a = read(PretzelLink((-1, 6, 3, 5))).tag
        b = read(PretzelLink((3, -1, 5, 6))).tag
        assert a == b

    def test_family_link_round_trip(self):
        for params in ((-4, 5, 7), (-1, 6, 3, 5), (-1, -1, 4, 3, 3)):
            tag = read(PretzelLink(params)).tag
            assert read(family_link(tag)).tag == tag

    def test_mirror_membership(self):
        for params in ((-4, 5, 7), (-2, 3, 7), (-1, 6, 3, 5), (-1, -1, 4, 3, 3)):
            tag = read(PretzelLink(params)).tag
            mirror = read(PretzelLink(tuple(-a for a in params))).tag
            assert not tag.mirror and mirror.mirror
            assert (mirror.kind, mirror.index, mirror.p, mirror.q) == (
                tag.kind, tag.index, tag.p, tag.q
            )
            assert read(family_link(mirror)).tag == mirror
            assert str(mirror) == f"MIRROR({tag})"

    def test_text_formatted_once(self):
        # each gate of a candidate family reports str(tag): a second str
        # reuses the first text, and the kept text changes no comparison
        tag = read(PretzelLink((2, 1, -3, -7))).tag
        text = str(tag)
        assert text == "MIRROR(MINUS1_2N(n=-1,p=3,q=7))"
        assert str(tag) is text
        fresh = read(PretzelLink((2, 1, -3, -7))).tag
        assert fresh == tag and hash(fresh) == hash(tag) and repr(fresh) == repr(tag)

    @pytest.mark.parametrize(
        "texts",
        [{"-4,5,7": "member", "-2,3,7": "member", "3,-1,5,6": "member", "-1,-1,4,3,3": "member"},
         {"4,-5,-7": "mirror", "2,-3,-7": "mirror", "-3,1,-5,-6": "mirror", "1,1,-4,-3,-3": "mirror"},
         {"3,5,7": "other", "-3,-5,-7": "other", "2,1,1": "other", "3,-5,7": "other", "-4,5,7,9": "other"},
         {"1/2;4/3;-13/7": "member", "-1/2;-4/3;13/7": "mirror", "1/3;1/3;1/3": "other",
          "2/3;1/3;-1/2": "other"}],
        ids=["members", "mirror-members", "others", "montesinos"],
    )
    def test_one_family_lookup(self, monkeypatch, texts):
        # the sign of an odd region chooses the knot or its mirror image
        # before the lookup, so a member, a mirror member and a knot of
        # neither are each looked up once
        lookup, calls = pretzel._family_tag, []
        monkeypatch.setattr(pretzel, "_family_tag", lambda *args: calls.append(args) or lookup(*args))
        for text, kind in texts.items():
            calls.clear()
            tag = read(parse(text)).tag
            read_as = "other" if tag.kind is FamilyKind.OTHER else "mirror" if tag.mirror else "member"
            assert (len(calls), read_as) == (1, kind), text

    def test_normal_form_box(self):
        # every pretzel knot with 1-4 regions in -7..7 or 5 regions in -5..5:
        # a cancelling (1, -1) pair never changes the tag, and a member's
        # standard parameter list has the input's skein polynomial
        knots = members = 0
        for n, bound in ((1, 7), (2, 7), (3, 7), (4, 7), (5, 5)):
            for params in product(range(-bound, bound + 1), repeat=n):
                try:
                    tag = read(PretzelLink(params)).tag
                except PretzelError:
                    continue  # a link
                knots += 1
                assert read(PretzelLink(params + (1, -1))).tag == tag, params
                if tag.kind is FamilyKind.OTHER:
                    continue
                members += 1
                delta = alexander_skein(PretzelLink(params))
                assert delta.equal_up_to_units(alexander_skein(family_link(tag))), params
        assert (knots, members) == (56488, 2898)


class TestMontesinos:
    def test_parse(self):
        desc = parse_montesinos("1/3;1/3;-1/2")
        assert len(desc.tangles) == 3

    def test_tangles(self):
        assert tangles(PretzelLink((3,))) == ((3, 1),)
        assert tangles(PretzelLink((-2, 0, 3))) == ((-1, 2), (1, 0), (1, 3))
        assert tangles(parse_montesinos("-1/2;4;6/4")) == ((-1, 2), (4, 1), (3, 2))

    # the reference pretzel of a description, and the description's family
    # tag against that pretzel's
    def test_as_pretzel_literal(self):
        desc = parse_montesinos("1/3;1/3;-1/2")
        assert as_pretzel(desc) == PretzelLink((3, 3, -2))
        assert read(desc).tag == read(PretzelLink((3, 3, -2))).tag

    def test_as_pretzel_rational_fails(self):
        assert as_pretzel(parse_montesinos("2/5;1/3;1/3")) is None
        assert read(parse_montesinos("2/5;1/3;1/2")).tag is None
        # one tangle: M(1/7) is two-bridge (the unknot), while P(7) is T(2,7)
        assert as_pretzel(parse_montesinos("1/7")) is None
        assert read(parse_montesinos("1/7")).tag is None

    def test_as_pretzel_pm1_mod_alpha(self):
        # 4/3 = 1 + 1/3, -13/7 = -2 + 1/7, 3/2 = 1 + 1/2, 0 = 1 - 1
        cases = {
            "1/2;4/3;-13/7": (2, 3, 1, 7, -1, -1),
            "2/3;1/3;-1/2": (-3, 1, 3, -2),
            "3/2;-5/2;1/3": (2, 1, -2, -1, -1, 3),
            "1/3;0;2": (3, 1, -1, 1, 1),
        }
        for text, params in cases.items():
            desc, link = parse_montesinos(text), PretzelLink(params)
            assert as_pretzel(desc) == link, text
            assert is_knot(desc) == is_knot(link), text
            if is_knot(link):
                assert read(desc).tag == read(link).tag, text
        assert read(parse_montesinos("1/2;4/3;-13/7")).tag == read(
            PretzelLink((-2, 3, 7))
        ).tag

    def test_as_pretzel_determinant(self):
        # three-tangle Montesinos knots: |Delta(-1)| of the reference
        # pretzel equals |D| read from the tangles, and the knot test and
        # the family tag of the description are those of the pretzel
        checked = 0
        for text, link in box_knots():
            desc = parse_montesinos(text)
            det = determinant(tangles(desc))
            delta = alexander_skein(link).normalize()
            assert abs(at_minus_one(delta)) == abs(det), text
            assert is_knot(desc)
            assert read(desc).tag == read(link).tag, text
            checked += 1
        assert checked == 8432

    def test_parse_rejects(self):
        with pytest.raises(PretzelError):
            parse_montesinos("1/3;;1/2")
