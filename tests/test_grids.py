import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypodecay.errors import DomainEscape
from hypodecay.grids import (
    CENTERED,
    FOURTH_DIFFERENCE,
    Grid1D,
    WeightSpec,
    antiderivative,
    check_escape,
    correlate,
    d_dx,
    fourth_difference,
    ghost_pad,
    gram,
    h1_norm,
    inner,
    l2_norm,
    _columns,
    _component_sum,
)

# a scaled second difference: a three-tap kernel beside the two that d_dx
# and fourth_difference build
SECOND_DIFFERENCE = 0.3 * np.array([1.0, -2.0, 1.0])


def test_constructor_guards(assert_refused):
    """L > 0, N >= 16 and the two bcs are held where they enter, by the config."""
    for path, value in (("grid.L", 0.0), ("grid.N", 8), ("grid.bc", "dirichlet")):
        assert_refused("heat_oracle", {path: value}, path)


def test_periodic_layout():
    g = Grid1D(L=10.0, N=40, bc="periodic")
    assert g.dx == pytest.approx(0.5)
    assert g.x[0] == -10.0
    assert g.x[-1] == pytest.approx(10.0 - g.dx)  # right endpoint excluded
    assert g.qw.sum() == pytest.approx(20.0)
    assert g.periodic


def test_compact_layout():
    g = Grid1D(L=10.0, N=41, bc="compact_support")
    assert g.x[0] == -10.0 and g.x[-1] == 10.0
    assert g.qw[0] == g.qw[-1] == g.dx / 2.0
    assert g.qw.sum() == pytest.approx(20.0)
    assert not g.periodic


# At (7.7, 16) and (1.0, 999), -L + (N - 1) * step rounds away from L.
@pytest.mark.parametrize("L,N", [(10.0, 41), (7.7, 16), (1.0, 999), (50.0, 4097),
                                 (123.456, 8193), (2000.0, 1048577)])
def test_block_nodes_are_linspace_bitwise(L, N):
    """Blocks of `nodes`, the last node included, are np.linspace(-L, L, N)'s
    bits, and dx is its first gap; `weights` are the trapezoid's."""
    g = Grid1D(L=L, N=N, bc="compact_support")
    ref = np.linspace(-L, L, N)
    assert g.dx == ref[1] - ref[0]
    qw = np.full(N, ref[1] - ref[0])
    qw[0] = qw[-1] = qw[0] / 2.0
    for block in (1, 2, 3, N // 3, N - 1, N) if N < 10_000 else (N // 3, 1 << 16, N):
        cuts = list(range(0, N, block)) + [N]
        x = np.concatenate([g.nodes(lo, hi) for lo, hi in zip(cuts, cuts[1:])])
        assert x.tobytes() == ref.tobytes()
        w = np.concatenate([g.weights(lo, hi) for lo, hi in zip(cuts, cuts[1:])])
        assert w.tobytes() == qw.tobytes()
    assert g.nodes(N - 1, N)[0] == L


def test_periodic_block_nodes_continue_the_grid():
    g = Grid1D(L=10.0, N=40, bc="periodic")
    assert (-10.0 + 0.5 * np.arange(40)).tobytes() == g.x.tobytes()
    assert g.nodes(13, 40).tobytes() == g.x[13:].tobytes()
    assert g.weights(0, 40).tobytes() == np.full(40, 0.5).tobytes()


def test_gaussian_quadrature_machine_precision():
    # trapezoid is super-algebraically accurate for rapidly decaying data
    g = Grid1D(L=50.0, N=2048, bc="periodic")
    f = np.exp(-g.x**2)
    assert g.qw @ f == pytest.approx(np.sqrt(np.pi), rel=1e-14)
    assert l2_norm(g, f) == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-14)


def test_summation_by_parts_periodic():
    g = Grid1D(L=np.pi, N=128, bc="periodic")
    f = np.sin(g.x) + 0.3 * np.cos(3 * g.x)
    h = np.cos(2 * g.x)
    assert abs(inner(g, f, d_dx(g, h)) + inner(g, d_dx(g, f), h)) < 1e-13


def test_summation_by_parts_compact_interior_support():
    g = Grid1D(L=30.0, N=512, bc="compact_support")
    f = np.exp(-g.x**2)
    h = g.x * np.exp(-g.x**2)
    assert abs(inner(g, f, d_dx(g, h)) + inner(g, d_dx(g, f), h)) < 1e-13


def test_derivative_second_order():
    errs = []
    for N in (128, 256, 512):
        g = Grid1D(L=np.pi, N=N, bc="periodic")
        errs.append(np.abs(d_dx(g, np.sin(g.x)) - np.cos(g.x)).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.1)


def test_fourth_difference_oracles():
    g = Grid1D(L=5.0, N=80, bc="compact_support")
    # cubic lies in the stencil kernel; quartic gives the constant 24 dx^4
    assert np.abs(fourth_difference(g, g.x**3)[2:-2]).max() < 1e-9
    f = g.x**4
    quartic = fourth_difference(g, f)
    assert quartic[2:-2] == pytest.approx(24.0 * g.dx**4, rel=1e-6)
    # the two end rows at each side read across x = +-L, round the ring of the N nodes
    ends = [0, 1, -2, -1]
    ring = np.roll(f, 2) - 4.0 * np.roll(f, 1) + 6.0 * f - 4.0 * np.roll(f, -1) + np.roll(f, -2)
    assert quartic[ends] == pytest.approx(ring[ends], rel=1e-13)
    assert np.all(np.abs(quartic[ends]) > 1.0)


def test_fourth_difference_periodic_wraps():
    g = Grid1D(L=np.pi, N=64, bc="periodic")
    out = fourth_difference(g, np.sin(g.x))
    # undivided stencil of sin: (2 sin(dx/2))^4 * sin(x)
    factor = (2.0 * np.sin(g.dx / 2.0)) ** 4
    assert out == pytest.approx(factor * np.sin(g.x), abs=1e-12)


def _assert_close(got, want):
    """Equal up to the reassociation of a stencil sum: 1e-15 of the largest |want|."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("N", [16, 63])
@pytest.mark.parametrize("k", [None, 2])
def test_periodic_stencils_match_roll_reference(N, k):
    g = Grid1D(L=3.0, N=N, bc="periodic")
    rng = np.random.default_rng(N)
    f = rng.standard_normal(N if k is None else (N, k))

    def s(shift):
        return np.roll(f, shift, axis=0)

    _assert_close(d_dx(g, f), (s(-1) - s(1)) / (2.0 * g.dx))
    _assert_close(fourth_difference(g, f), s(-2) - 4.0 * s(-1) + 6.0 * f - 4.0 * s(1) + s(2))
    _assert_close(_columns(f, SECOND_DIFFERENCE), 0.3 * (s(-1) - 2.0 * f + s(1)))


@pytest.mark.parametrize("N", [16, 63])
@pytest.mark.parametrize("k", [None, 2])
def test_compact_stencils_match_slice_reference(N, k):
    """A compact grid's stencils read its N nodes as a ring: slices inside,
    and rows that reach past x = +-L take the nodes at the other end."""
    g = Grid1D(L=3.0, N=N, bc="compact_support")
    rng = np.random.default_rng(N)
    f = rng.standard_normal(N if k is None else (N, k))
    dx = g.dx
    ring = np.concatenate((f[-2:], f, f[:2]))

    _assert_close(d_dx(g, f), (ring[3:-1] - ring[1:-3]) / (2.0 * dx))

    _assert_close(_columns(f, SECOND_DIFFERENCE), 0.3 * (ring[3:-1] - 2.0 * f + ring[1:-3]))

    _assert_close(fourth_difference(g, f),
                  ring[4:] - 4.0 * ring[3:-1] + 6.0 * f - 4.0 * ring[1:-3] + ring[:-4])


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
@pytest.mark.parametrize("N", [16, 63])
def test_correlate_engine_matches_roll_and_slice_oracles(bc, N):
    """One ghost pad of a grid's N values gives both pre-scaled stencils of the
    field: the derivative s (f[i+1] - f[i-1]) and the fourth difference, each
    aligned on its centre node and wrapping at the ends on either grid."""
    g = Grid1D(L=3.0, N=N, bc=bc)
    f = np.random.default_rng(N).standard_normal(g.N)
    s, c = -0.7, 0.3
    pad = ghost_pad(f)
    assert pad.shape == (N + 4,)

    def shift(k):
        return np.roll(f, -k)

    want1 = s * (shift(1) - shift(-1))
    want4 = c * (shift(-2) - 4.0 * shift(-1) + 6.0 * f - 4.0 * shift(1) + shift(2))
    _assert_close(correlate(pad, s * CENTERED), want1)
    _assert_close(correlate(pad, c * FOURTH_DIFFERENCE), want4)
    # a unit impulse reads back the kernel, centred on the impulse, and an
    # impulse at the last node reaches the first two across the end
    e = np.zeros(N)
    e[5] = 1.0
    assert np.array_equal(correlate(ghost_pad(e), FOURTH_DIFFERENCE)[3:8],
                          FOURTH_DIFFERENCE[::-1])
    assert np.array_equal(correlate(ghost_pad(e), CENTERED)[4:7], CENTERED[::-1])
    last = np.zeros(N)
    last[-1] = 1.0
    got = correlate(ghost_pad(last), FOURTH_DIFFERENCE)
    assert np.array_equal(got[:2], FOURTH_DIFFERENCE[[1, 0]])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_component_sum_matches_numpy_row_sum(k):
    rng = np.random.default_rng(k)
    f = rng.standard_normal((257, k))
    g = rng.standard_normal((257, k))
    assert np.array_equal(_component_sum(f, g), (f * g).sum(axis=1))
    assert np.array_equal(_component_sum(f, f), (f * f).sum(axis=1))
    wide = rng.standard_normal((257, k + 3))
    fv, gv = wide[:, 1:k + 1], wide[:, 3:k + 3]  # strided column-slice views
    assert np.array_equal(_component_sum(fv, gv), (fv * gv).sum(axis=1))


def test_weight_values():
    w = WeightSpec("power", mu=2.0)
    assert w.values(np.array([-3.0, 0.0, 2.0])) == pytest.approx([9.0, 0.0, 4.0])
    wl = WeightSpec("log", q=2.0)
    assert wl.values(np.array([np.e - 1.0])) == pytest.approx([1.0])


def test_weight_guards(assert_refused):
    """A power weight's mu >= 0, a log weight's q > 0 and the kind are held
    where they enter, by the config."""
    for weight, at in (({"kind": "power", "mu": -0.5}, "weights.0.mu"),
                       ({"kind": "log", "q": 0.0}, "weights.0.q"),
                       ({"kind": "tent"}, "weights.0.kind")):
        assert_refused("heat_oracle", {"weights": [{"role": "spatial", **weight}]}, at)


def test_weighted_norm_squares_weight():
    g = Grid1D(L=20.0, N=512, bc="periodic")
    f = np.exp(-g.x**2 / 2.0)
    w = WeightSpec("power", mu=1.0)
    # int x^2 e^{-x^2} = sqrt(pi)/2
    w2 = w.values(g.x) ** 2
    assert l2_norm(g, f, w2) ** 2 == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-12)


def test_multicomponent_norm():
    g = Grid1D(L=10.0, N=128, bc="periodic")
    f = np.exp(-g.x**2)
    U = np.stack([3.0 * f, 4.0 * f], axis=1)
    assert l2_norm(g, U) == pytest.approx(5.0 * l2_norm(g, f), rel=1e-14)


def test_h1_norm_pythagoras():
    g = Grid1D(L=np.pi, N=256, bc="periodic")
    f = np.sin(g.x)
    a, b = l2_norm(g, f), l2_norm(g, d_dx(g, f))
    assert h1_norm(g, f) == pytest.approx(np.hypot(a, b), rel=1e-14)


def test_antiderivative_round_trip():
    g = Grid1D(L=25.0, N=2048, bc="compact_support")
    f = -2.0 * g.x * np.exp(-g.x**2)  # derivative of a Gaussian: zero mass
    F = antiderivative(g, f)
    assert F[0] == 0.0
    assert abs(F[-1]) < 1e-14  # the trapezoid total of a zero-mass f
    # both bounds sit one decade above the dx^2 truncation estimate
    assert np.abs(F - (np.exp(-g.x**2) - np.exp(-g.L**2))).max() < 2e-4
    assert np.abs(d_dx(g, F)[1:-1] - f[1:-1]).max() < 2e-3


def test_antiderivative_mass_per_component():
    g = Grid1D(L=10.0, N=256, bc="compact_support")
    U = np.stack([np.exp(-g.x**2), g.x * np.exp(-g.x**2)], axis=1)
    F = antiderivative(g, U)
    assert F.shape == (256, 2)
    assert np.array_equal(F[:, 0], antiderivative(g, U[:, 0]))
    assert F[-1, 0] == pytest.approx(np.sqrt(np.pi), rel=1e-10)
    assert abs(F[-1, 1]) < 1e-14


@pytest.mark.parametrize("shape", [(64,), (64, 3)], ids=["N", "N-k"])
@pytest.mark.parametrize("end", [0, -1], ids=["left", "right"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
def test_check_escape_reads_both_ends_of_each_field(shape, end, sign):
    tol = 1e-10
    quiet = np.zeros(64)
    quiet[1:-1] = 1.0  # interior values never count
    f = np.zeros(shape)
    f[1:-1] = 1.0
    at = (end, -1) if f.ndim == 2 else end
    f[at] = sign * tol
    check_escape(0.5, tol, quiet, f)  # exactly at tol holds
    f[at] = sign * np.nextafter(tol, 1.0)
    with pytest.raises(DomainEscape, match=r"amplitude 1\.000e-10 at t=0\.5 exceeds 1\.0e-10"):
        check_escape(0.5, tol, quiet, f)
    with pytest.raises(DomainEscape):
        check_escape(0.5, tol, f, quiet)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=5),
    c=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_sbp_holds_for_trig_family(k, c):
    g = Grid1D(L=np.pi, N=96, bc="periodic")
    f = np.sin(k * g.x) + c
    h = np.cos(k * g.x)
    scale = 1.0 + abs(c)
    assert abs(inner(g, f, d_dx(g, h)) + inner(g, d_dx(g, f), h)) < 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(width=st.floats(min_value=1.0, max_value=5.0, allow_nan=False),
       shift=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_translated_gaussian_mass_invariant(width, shift):
    g = Grid1D(L=60.0, N=1024, bc="periodic")
    f = np.exp(-(((g.x - shift) / width) ** 2))
    assert g.qw @ f == pytest.approx(width * np.sqrt(np.pi), rel=1e-12)


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
def test_d_dx_of_a_field_is_d_dx_of_each_column_bitwise(bc):
    g = Grid1D(L=7.0, N=97, bc=bc)
    f = np.random.default_rng(2).standard_normal((97, 3))
    for U in (f, np.asfortranarray(f), f[:, ::-1]):
        got = d_dx(g, U)
        assert got.shape == U.shape
        for k in range(U.shape[1]):
            assert np.array_equal(got[:, k], d_dx(g, U[:, k]))


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
def test_d_dx_is_the_derivative_of_the_ghost_pad_bitwise(bc):
    g = Grid1D(L=7.0, N=97, bc=bc)
    f = np.random.default_rng(1).standard_normal(97)
    assert np.array_equal(d_dx(g, f), correlate(ghost_pad(f), CENTERED / (2.0 * g.dx)))


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
def test_gram_is_the_quadrature_of_row_products(bc):
    g = Grid1D(L=5.0, N=64, bc=bc)
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3, g.N))
    c = rng.standard_normal(g.N)
    G, Gc = gram(g, rows), gram(g, rows, c)
    assert G.shape == (3, 3) and Gc.shape == (3, 3)
    # the product by dx, redone at the compact ends, is the product by qw
    assert np.array_equal(G, (rows * g.qw) @ rows.T)
    # the memory order of the rows does not move a bit
    assert np.array_equal(gram(g, np.asfortranarray(rows)), G)
    assert np.array_equal(gram(g, np.asfortranarray(rows), c), Gc)
    for i in range(3):
        for j in range(3):
            assert G[i, j] == pytest.approx(g.qw @ (rows[i] * rows[j]), rel=1e-14)
            assert Gc[i, j] == pytest.approx(g.qw @ (c * rows[i] * rows[j]),
                                             rel=1e-13, abs=1e-13)


def test_grid_keeps_abs_x_and_the_origin_node():
    for g in (Grid1D(L=10.0, N=40), Grid1D(L=10.0, N=41, bc="compact_support")):
        assert np.array_equal(g.abs_x, np.abs(g.x))
        assert g.i0 == int(np.argmin(np.abs(g.x)))
        assert g.x[g.i0] == 0.0


@pytest.mark.parametrize("bc", ["periodic", "compact_support"])
def test_ghost_pad_pads_the_last_axis(bc):
    g = Grid1D(L=7.0, N=40, bc=bc)
    rows = np.random.default_rng(6).standard_normal((3, 40))
    assert rows.shape[-1] == g.N
    pad = ghost_pad(rows, 4)
    assert pad.shape == (3, 48) and pad.flags.c_contiguous
    for r, p in zip(rows, pad):
        assert np.array_equal(p, np.concatenate((r[-4:], r, r[:4])))
    assert np.array_equal(ghost_pad(rows[0]), pad[0, 2:-2])
