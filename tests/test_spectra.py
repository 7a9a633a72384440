import math
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import (
    brute_spectrum,
    expand_records,
    normalized_coeffs,
    peak_bytes_of,
    random_raw_coeffs,
    reference_dumps,
    reference_entries,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_spectra import (
    AliasingError,
    CoefficientFileError,
    ContractError,
    EigenfunctionCoeffs,
    MembershipError,
    RangeError,
    SpectrumEngine,
    SphereShell,
    applicable_bound,
    autocorrelation,
    bound_constant,
    check_theorem,
    coeffs_from_json,
    coeffs_to_json,
    enumerate_shell,
    grid_density,
    lp_norm,
    min_alias_free_grid,
    parseval_check,
    random_coeffs,
)
from torus_spectra import jsonfmt, spectra
from torus_spectra._packing import pack_rows, pack_spec
from torus_spectra.errors import ResourceLimitError
from torus_spectra.spectra import spectrum_entries_json

RT2 = math.sqrt(0.5)


def antipodal_pair_coeffs():
    shell = enumerate_shell(2, 1)
    return EigenfunctionCoeffs(shell, {(1, 0): RT2 + 0j, (-1, 0): RT2 + 0j})


# --------------------------------------------------------------------------
# coefficient construction


def test_sparse_one_has_unit_modulus():
    shell = enumerate_shell(5, 5)
    coeffs = random_coeffs(shell, seed=3, mode="sparse", k=1)
    (amp,) = coeffs.amplitudes.values()
    assert abs(abs(amp) - 1.0) < 1e-12


def test_uniform_mass_split():
    shell = enumerate_shell(2, 25)
    coeffs = random_coeffs(shell, seed=0, mode="uniform")
    assert len(coeffs.amplitudes) == 12
    for a in coeffs.amplitudes.values():
        assert a == pytest.approx(1 / math.sqrt(12))


def test_gaussian_is_deterministic():
    shell = enumerate_shell(3, 9)
    a = random_coeffs(shell, seed=7, mode="gaussian")
    b = random_coeffs(shell, seed=7, mode="gaussian")
    assert a.amplitudes == b.amplitudes
    c = random_coeffs(shell, seed=8, mode="gaussian")
    assert a.amplitudes != c.amplitudes


def test_sparse_k_support_size():
    shell = enumerate_shell(2, 25)
    coeffs = random_coeffs(shell, seed=1, mode="sparse", k=5)
    assert len(coeffs.support) == 5
    with pytest.raises(ContractError):
        random_coeffs(shell, seed=1, mode="sparse", k=13)


def test_random_coeffs_rejects_empty_shell():
    with pytest.raises(ContractError):
        random_coeffs(enumerate_shell(2, 3), seed=0)


def test_random_coeffs_rejects_unknown_mode():
    with pytest.raises(ContractError, match="unknown mode 'bogus'"):
        random_coeffs(enumerate_shell(2, 25), seed=0, mode="bogus")


def test_coeffs_validation():
    shell = enumerate_shell(2, 25)
    with pytest.raises(MembershipError):
        EigenfunctionCoeffs(shell, {(1, 1): 1.0 + 0j})
    with pytest.raises(ContractError):
        EigenfunctionCoeffs(shell, {(5, 0): 0.5 + 0j})  # mass 0.25
    with pytest.raises(ContractError):
        EigenfunctionCoeffs(shell, {(5, 0): 0j})
    with pytest.raises(ContractError):
        EigenfunctionCoeffs(shell, {})


@pytest.mark.parametrize("amplitudes", [
    {(5, 0): complex(math.nan, 0.0)},
    {(5, 0): complex(0.6, math.nan)},
    {(5, 0): complex(math.inf, 0.0)},
    {(5, 0): 1e154 + 0j, (0, 5): 1e154 + 0j},  # each |a|^2 finite, their sum overflows
])
def test_coeffs_refuse_a_non_finite_squared_mass(amplitudes):
    with pytest.raises(ContractError, match="squared-mass sum (nan|inf) deviates"):
        EigenfunctionCoeffs(enumerate_shell(2, 25), amplitudes)


# --------------------------------------------------------------------------
# autocorrelation


def test_single_point_spectrum():
    shell = enumerate_shell(2, 25)
    coeffs = EigenfunctionCoeffs(shell, {(3, 4): 1.0 + 0j})
    spectrum = autocorrelation(coeffs)
    assert set(spectrum.entries) == {(0, 0)}
    assert spectrum.entries[(0, 0)] == pytest.approx(1.0)


def test_antipodal_pair_spectrum():
    spectrum = autocorrelation(antipodal_pair_coeffs())
    entries = spectrum.entries
    assert set(entries) == {(0, 0), (2, 0), (-2, 0)}
    assert entries[(0, 0)] == pytest.approx(1.0)
    assert entries[(2, 0)] == pytest.approx(0.5)
    assert entries[(-2, 0)] == pytest.approx(0.5)


def test_uniform_spectrum_is_pair_count_over_size():
    shell = enumerate_shell(2, 25)
    coeffs = random_coeffs(shell, seed=0, mode="uniform")
    entries = autocorrelation(coeffs).entries
    counts: dict[tuple, int] = {}
    for xi in shell.points:
        for eta in shell.points:
            tau = (xi[0] - eta[0], xi[1] - eta[1])
            counts[tau] = counts.get(tau, 0) + 1
    assert set(entries) == set(counts)
    for tau, m in counts.items():
        assert entries[tau] == pytest.approx(m / 12, abs=1e-12)


@pytest.mark.parametrize("dim,lam", [(2, 25), (3, 9), (4, 4), (5, 5)])
def test_brute_force_equivalence(dim, lam):
    shell = enumerate_shell(dim, lam)
    rng = np.random.default_rng(42)
    for _ in range(5):
        coeffs = random_raw_coeffs(shell, rng)
        entries = autocorrelation(coeffs).entries
        oracle = brute_spectrum(coeffs)
        assert set(entries) == set(oracle)
        for tau, b in oracle.items():
            assert abs(entries[tau] - b) < 1e-12


def test_pair_structure_refuses_keys_beyond_int64():
    # the 32 points +-4e_i of shell(16,16): differences reach 8 = 2*isqrt(16), and
    # radix-17 keys in dim 16 do not fit (17^16 > 2^62), so the pair index is
    # refused before it allocates anything of the 32^2 pairs
    with pytest.raises(ResourceLimitError, match="do not fit in int64"):
        pack_spec(16, 8)
    pts = tuple(sorted(tuple(s * 4 * (k == i) for k in range(16))
                       for i in range(16) for s in (1, -1)))
    shell = SphereShell(16, 16, pts, frozenset(pts))
    coeffs = random_raw_coeffs(shell, np.random.default_rng(16))
    peak, raised = peak_bytes_of(lambda: autocorrelation(coeffs))
    assert isinstance(raised, ResourceLimitError) and "int64" in str(raised)
    assert peak < 8 * 32 * 32 * 16 // 4  # a quarter of the 131 KB of (s^2, dim) difference rows


def test_entries_cover_exactly_the_support_difference_set():
    shell = enumerate_shell(2, 25)
    coeffs = normalized_coeffs(shell, {(5, 0): 1.0, (4, 3): 1.0j, (0, 5): -1.0})
    supp = coeffs.support
    expected = {tuple(x - y for x, y in zip(a, b)) for a in supp for b in supp}
    assert set(autocorrelation(coeffs).entries) == expected


def test_entries_and_json_match_per_element_construction():
    spectrum = autocorrelation(random_coeffs(enumerate_shell(6, 6), 4, "gaussian"))
    entries = spectrum.entries
    assert all(type(c) is int for t in entries for c in t)
    assert all(type(v) is complex for v in entries.values())
    pairs = list(zip(spectrum.taus, spectrum.values))
    assert list(entries.items()) == [(tuple(int(c) for c in t), complex(v)) for t, v in pairs]
    rows = reference_entries(spectrum.taus, spectrum.values)
    assert all(type(c) is int for row in rows for c in row["tau"])
    assert all(type(row["re"]) is float and type(row["im"]) is float for row in rows)
    assert rows == [
        {"tau": [int(c) for c in t], "re": float(v.real), "im": float(v.imag)} for t, v in pairs
    ]
    records = spectrum_entries_json(spectrum)
    assert records.fields == ("tau", "re", "im")
    assert expand_records(records) == rows
    for pretty in (True, False):
        assert jsonfmt.dumps(records, pretty) == reference_dumps(rows, pretty)


@pytest.mark.parametrize("dim,lam", [(2, 65), (5, 5), (6, 6)])
def test_accumulate_and_gather_match_two_bincount_formula(dim, lam):
    # independent pair index: np.unique over the difference rows themselves
    supp = np.array(enumerate_shell(dim, lam).points, dtype=np.int64)
    s = len(supp)
    taus, inv = np.unique((supp[:, None, :] - supp[None, :, :]).reshape(s * s, dim), axis=0,
                          return_inverse=True)
    inv = inv.reshape(-1)
    engine = SpectrumEngine(enumerate_shell(dim, lam))
    assert np.array_equal(engine.taus, taus)
    rng = np.random.default_rng(dim * 1000 + lam)
    for _ in range(3):
        a = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        outer = (a[:, None] * a.conj()[None, :]).reshape(-1)
        br = np.bincount(inv, weights=np.ascontiguousarray(outer.real), minlength=len(taus))
        bi = np.bincount(inv, weights=np.ascontiguousarray(outer.imag), minlength=len(taus))
        b = engine.accumulate(a)
        assert np.array_equal(b, br + 1j * bi)
        w = rng.standard_normal(len(taus)) + 1j * rng.standard_normal(len(taus))
        assert np.array_equal(engine.gather(w), w[inv])


def _pair_cases():
    """(dim, lam, support) cases: whole shells, random subsets of shell(5,14), lambda = 0."""
    cases = [(dim, lam, np.array(enumerate_shell(dim, lam).points, dtype=np.int64))
             for dim, lam in [(2, 65), (5, 5), (6, 6)]]
    pts = np.array(enumerate_shell(5, 14).points, dtype=np.int64)
    rng = np.random.default_rng(14)
    for k in (1, 2, 37, 300):
        cases.append((5, 14, pts[np.sort(rng.choice(len(pts), size=k, replace=False))]))
    cases += [(dim, 0, np.zeros((1, dim), np.int64)) for dim in (2, 6)]
    return cases


@pytest.mark.parametrize("branch", ["table", "sorted"])
@pytest.mark.parametrize("case", range(9))
def test_pair_index_matches_unique_over_difference_rows(case, branch, monkeypatch):
    # oracle: np.unique over the difference rows themselves, in pair order i*s + j
    dim, lam, supp = _pair_cases()[case]
    s = len(supp)
    taus, inv = np.unique((supp[:, None, :] - supp[None, :, :]).reshape(s * s, dim), axis=0,
                          return_inverse=True)
    bins = np.stack([2 * inv.reshape(-1), 2 * inv.reshape(-1) + 1], axis=1).reshape(-1)
    shell, support = enumerate_shell(dim, lam), tuple(map(tuple, supp.tolist()))
    _, radix = pack_spec(dim, 2 * math.isqrt(lam))
    assert 9 * radix**dim <= spectra.TABLE_BYTES  # every case fits the table by default
    if branch == "sorted":
        monkeypatch.setattr(spectra, "TABLE_BYTES", 0)
    marked = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero", lambda a: marked.append(len(a)) or flatnonzero(a))
    engine = SpectrumEngine(shell, support)
    assert marked == ([radix**dim] if branch == "table" else [])
    assert engine.taus.dtype == taus.dtype and np.array_equal(engine.taus, taus)
    assert engine.bins.dtype == np.intp and np.array_equal(engine.bins, bins)
    assert engine.size == s and engine.n_taus == len(taus)


def test_pair_guard_refuses_by_bytes_before_allocating(monkeypatch):
    # shell(5,14): 800 points; the guard's estimate, about 46 MB, still counts the
    # difference rows, which the packed build never forms (it peaks at about 18 MB
    # of keys, inv, bins and box tables). The estimate is kept on purpose: resizing
    # it would change which supports, and so which commands, exit 2.
    shell = enumerate_shell(5, 14)
    monkeypatch.setattr(spectra, "PAIR_INDEX_BYTES", 10**6)
    peak, raised = peak_bytes_of(lambda: SpectrumEngine(shell))
    assert isinstance(raised, ResourceLimitError) and "bytes" in str(raised)
    assert peak < 10**5
    monkeypatch.undo()
    # at the default budget: the largest shell in use builds, and shell(5,50)'s
    # 5,240 points (about 2.0 GB) are refused up front
    assert SpectrumEngine(shell).size == 800
    many = enumerate_shell(5, 50)
    assert len(many) == 5240
    peak, raised = peak_bytes_of(lambda: SpectrumEngine(many))
    assert isinstance(raised, ResourceLimitError)
    assert peak < 10**5


def test_pair_build_holds_no_difference_rows():
    # keys, inv and the two bins per pair, 8 bytes each, beside the box's mark
    # and rank tables: no (s^2, dim) temporary fits under this bound, and only
    # taus and bins outlive the build
    shell = enumerate_shell(6, 6)
    s = len(shell)
    _, radix = pack_spec(6, 2 * math.isqrt(6))
    tracemalloc.start()
    try:
        engine = SpectrumEngine(shell)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.size == s == 544
    bound = 4 * 8 * s * s + 9 * radix**6 + 2**16
    assert peak <= bound < peak + 8 * s * s * 6
    assert held <= engine.taus.nbytes + engine.bins.nbytes + 2**16


@pytest.mark.parametrize("pretty,multiple", [(True, 3.4), (False, 4.6)])
def test_spectrum_rendering_peak_stays_within_a_multiple_of_its_output(pretty, multiple):
    # one % over the repeated row template holds the output, the template, the
    # flattened values and their floats: 3.0x (pretty) and 4.2x (compact) the
    # output's length here, where one string and one tuple per row peak at
    # 4.1x and 5.1x
    records = spectrum_entries_json(autocorrelation(random_coeffs(enumerate_shell(6, 6), 1)))
    out = []
    peak, raised = peak_bytes_of(lambda: out.append(jsonfmt.dumps(records, pretty)))
    assert raised is None and len(out[0]) > 2 * 10**6
    assert peak <= multiple * len(out[0])


def test_autocorrelation_releases_its_pair_index(monkeypatch):
    # the spectrum keeps its taus and values; the pair index it was summed
    # over (4.7 MB of bins on shell(6,6)) is gone once autocorrelation returns
    refs = []
    init = SpectrumEngine.__init__

    def recorded(self, shell, support=None):
        init(self, shell, support)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(SpectrumEngine, "__init__", recorded)
    coeffs = random_coeffs(enumerate_shell(6, 6), 1)
    tracemalloc.start()
    try:
        spectrum = autocorrelation(coeffs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(refs) == 1 and refs[0]() is None
    assert held <= spectrum.taus.nbytes + spectrum.values.nbytes + 2**16


def test_pack_rows_allocates_only_its_output():
    # keys are built in place: no row-count-long temporary beside the output
    rows = np.random.default_rng(3).integers(-6, 7, size=(100_000, 6))
    out = []
    peak, raised = peak_bytes_of(lambda: out.append(pack_rows(rows, 6, 13)))
    assert raised is None
    assert peak <= out[0].nbytes + 2**16
    oracle = [sum((int(c) + 6) * 13 ** (5 - i) for i, c in enumerate(row)) for row in rows[:2000]]
    assert out[0][:2000].tolist() == oracle


def test_b0_and_hermitian_symmetry():
    rng = np.random.default_rng(5)
    for dim, lam in [(2, 65), (3, 41), (4, 12), (5, 5), (6, 6)]:
        shell = enumerate_shell(dim, lam)
        for _ in range(5):
            coeffs = random_raw_coeffs(shell, rng)
            entries = autocorrelation(coeffs).entries
            zero = tuple([0] * dim)
            assert abs(entries[zero] - 1.0) < 1e-12
            for tau, b in entries.items():
                neg = tuple(-c for c in tau)
                assert abs(entries[neg] - b.conjugate()) < 1e-12


def test_phase_invariance():
    shell = enumerate_shell(3, 9)
    rng = np.random.default_rng(11)
    coeffs = random_raw_coeffs(shell, rng)
    base = autocorrelation(coeffs).entries
    theta = 0.7351
    rotated = EigenfunctionCoeffs(
        shell, {p: a * complex(math.cos(theta), math.sin(theta)) for p, a in coeffs.amplitudes.items()}
    )
    rot = autocorrelation(rotated).entries
    assert set(rot) == set(base)
    for tau in base:
        assert abs(rot[tau] - base[tau]) < 1e-12


def test_translation_covariance():
    shell = enumerate_shell(2, 25)
    rng = np.random.default_rng(12)
    coeffs = random_raw_coeffs(shell, rng)
    base = autocorrelation(coeffs)
    v = (0.328, -1.77)
    shifted = EigenfunctionCoeffs(
        shell,
        {
            p: a * np.exp(2j * np.pi * (p[0] * v[0] + p[1] * v[1]))
            for p, a in coeffs.amplitudes.items()
        },
    )
    sh = autocorrelation(shifted).entries
    for tau, b in base.entries.items():
        phase = np.exp(2j * np.pi * (tau[0] * v[0] + tau[1] * v[1]))
        assert abs(sh[tau] - b * phase) < 1e-12
    for p in (1.0, 2.0, 5.0):
        assert lp_norm(autocorrelation(shifted), p) == pytest.approx(
            lp_norm(base, p), abs=1e-12
        )


# --------------------------------------------------------------------------
# norms and bounds


def test_lp_norm_examples():
    shell = enumerate_shell(2, 25)
    single = autocorrelation(EigenfunctionCoeffs(shell, {(5, 0): 1.0 + 0j}))
    for p in (1.0, 2.0, 3.5, 17.0):
        assert lp_norm(single, p) == pytest.approx(1.0)
    pair = autocorrelation(antipodal_pair_coeffs())
    assert lp_norm(pair, 2) == pytest.approx(math.sqrt(1.5))
    assert lp_norm(pair, 5) == pytest.approx((1 + 2 * 2.0**-5) ** 0.2)
    with pytest.raises(ContractError):
        lp_norm(pair, 0.5)


def test_bound_constant_golden_value():
    assert bound_constant(5) == pytest.approx(77.125 ** 0.2, rel=1e-15)
    assert round(bound_constant(5), 6) == 2.384729
    # the base of the fifth root
    assert 2.0 ** -3 + 2.25 * 32 + 5 == 77.125


def test_bound_constant_low_dimensions_rejected():
    for n in (2, 3, 4):
        with pytest.raises(RangeError):
            bound_constant(n)


def test_bound_constant_tends_to_two():
    assert abs(bound_constant(200) - 2.0) < 0.06
    assert abs(bound_constant(400) - 2.0) < 0.04
    # peak at n = 8, then strictly decreasing
    values = [bound_constant(n) for n in range(5, 401)]
    peak = max(range(len(values)), key=values.__getitem__)
    assert peak + 5 == 8
    tail = values[3:]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_applicable_bound():
    assert applicable_bound(5, 5.0) == pytest.approx(bound_constant(5))
    assert applicable_bound(2, 2.0) == pytest.approx(math.sqrt(5))
    assert applicable_bound(3, 3.0) is None
    assert applicable_bound(2, 4.0) is None
    assert applicable_bound(5, 2.0) is None


def test_check_theorem_sparse_single_point():
    shell = enumerate_shell(5, 5)
    report = check_theorem(random_coeffs(shell, seed=0, mode="sparse", k=1))
    assert report.norm_value == pytest.approx(1.0)
    assert report.passed and report.bound_value == pytest.approx(bound_constant(5))


def test_check_theorem_gaussian_dim5():
    shell = enumerate_shell(5, 5)
    for seed in range(5):
        report = check_theorem(random_coeffs(shell, seed=seed, mode="gaussian"))
        assert report.passed
        assert report.norm_value <= report.bound_value + 1e-9


def test_check_theorem_dim3_has_no_bound():
    report = check_theorem(random_coeffs(enumerate_shell(3, 9), seed=1, mode="gaussian"))
    assert report.bound_value is None
    assert report.passed


def test_zygmund_l2_budget_dim2():
    rng = np.random.default_rng(9)
    for lam in (1, 2, 25, 65):
        shell = enumerate_shell(2, lam)
        for _ in range(20):
            spectrum = autocorrelation(random_raw_coeffs(shell, rng))
            assert float(np.sum(np.abs(spectrum.values) ** 2)) <= 5 + 1e-9


@given(seed=st.integers(0, 2**31), k=st.integers(1, 112))
@settings(max_examples=40, deadline=None)
def test_theorem_bound_holds_on_sparse_supports(seed, k):
    shell = enumerate_shell(5, 5)
    report = check_theorem(random_coeffs(shell, seed=seed, mode="sparse", k=k))
    assert report.passed


# --------------------------------------------------------------------------
# grid quadrature


def test_grid_density_single_point_is_flat():
    shell = enumerate_shell(2, 25)
    coeffs = EigenfunctionCoeffs(shell, {(3, -4): 1.0 + 0j})
    grid = grid_density(coeffs, 8)
    assert grid.shape == (8, 8)
    assert np.allclose(grid, 1.0, atol=1e-12)


def test_grid_density_antipodal_cosine():
    coeffs = antipodal_pair_coeffs()
    m = 16
    grid = grid_density(coeffs, m)
    k = np.arange(m)
    expected = 1.0 + np.cos(4 * np.pi * k[:, None] / m) + 0.0 * k[None, :]
    assert np.allclose(grid, expected, atol=1e-12)
    assert grid.min() >= -1e-12


def test_grid_mean_recovers_b0():
    shell = enumerate_shell(2, 25)
    rng = np.random.default_rng(3)
    coeffs = random_raw_coeffs(shell, rng)
    m = min_alias_free_grid(25)
    assert abs(float(grid_density(coeffs, m).mean()) - 1.0) < 1e-9


def test_grid_density_guards():
    shell = enumerate_shell(3, 9)
    coeffs = random_coeffs(shell, seed=0, mode="gaussian")
    with pytest.raises(ContractError):
        grid_density(coeffs, 0)
    with pytest.raises(ResourceLimitError):
        grid_density(coeffs, 1000)  # 1e9 samples


def test_parseval_single_point():
    shell = enumerate_shell(2, 25)
    coeffs = EigenfunctionCoeffs(shell, {(0, 5): 1.0 + 0j})
    res = parseval_check(coeffs, 64)
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(1.0)
    assert res.rel_err < 1e-12


def test_parseval_antipodal_pair():
    res = parseval_check(antipodal_pair_coeffs(), 16)
    assert res.lhs == pytest.approx(1.5)
    assert res.rhs == pytest.approx(1.5)


def test_parseval_uniform_2_25():
    coeffs = random_coeffs(enumerate_shell(2, 25), seed=0, mode="uniform")
    res = parseval_check(coeffs, 64)
    assert res.rel_err < 1e-9


def test_parseval_refuses_aliasing_grid():
    coeffs = random_coeffs(enumerate_shell(2, 25), seed=0, mode="gaussian")
    with pytest.raises(AliasingError):
        parseval_check(coeffs, min_alias_free_grid(25) - 1)
    with pytest.raises(ContractError):
        parseval_check(random_coeffs(enumerate_shell(4, 4), seed=0), 16)
    # 4 * 5 = 20 is no square: ceil(2 sqrt(5)) = 5, so M must exceed 10
    assert min_alias_free_grid(5) == 11
    coeffs = random_coeffs(enumerate_shell(2, 5), seed=0, mode="gaussian")
    with pytest.raises(AliasingError, match="need M >= 11"):
        parseval_check(coeffs, 10)
    assert parseval_check(coeffs, 11).rel_err < 1e-12


# --------------------------------------------------------------------------
# JSON interchange


def test_coeffs_json_round_trip():
    shell = enumerate_shell(3, 9)
    coeffs = random_coeffs(shell, seed=4, mode="gaussian")
    obj = coeffs_to_json(coeffs)
    loaded = coeffs_from_json(obj)
    assert loaded.shell.dim == 3 and loaded.shell.lam == 9
    for p, a in coeffs.amplitudes.items():
        assert loaded.amplitudes[p] == pytest.approx(a)


def test_loader_normalizes_small_deviation():
    obj = {
        "dim": 2,
        "lambda": 25,
        "coeffs": [{"point": [5, 0], "re": 1.0 + 2e-5, "im": 0.0}],
    }
    loaded = coeffs_from_json(obj)
    assert abs(loaded.amplitudes[(5, 0)]) == pytest.approx(1.0)


def test_loader_rejects_large_deviation_unless_forced():
    obj = {
        "dim": 2,
        "lambda": 25,
        "coeffs": [{"point": [5, 0], "re": math.sqrt(0.5), "im": 0.0}],
    }
    with pytest.raises(CoefficientFileError):
        coeffs_from_json(obj)
    loaded = coeffs_from_json(obj, force_normalize=True)
    assert abs(loaded.amplitudes[(5, 0)]) == pytest.approx(1.0)


def test_loader_rejects_bad_files():
    with pytest.raises(CoefficientFileError):
        coeffs_from_json({"dim": 2, "lambda": 25})
    with pytest.raises(CoefficientFileError):
        coeffs_from_json({"dim": 2, "lambda": 25, "coeffs": []})
    with pytest.raises(CoefficientFileError):
        coeffs_from_json(
            {"dim": 2, "lambda": 25, "coeffs": [{"point": [1, 1], "re": 1.0, "im": 0.0}]}
        )
    with pytest.raises(CoefficientFileError):
        coeffs_from_json(
            {
                "dim": 2,
                "lambda": 25,
                "coeffs": [
                    {"point": [5, 0], "re": 0.9, "im": 0.0},
                    {"point": [5, 0], "re": 0.1, "im": 0.0},
                ],
            }
        )
    with pytest.raises(CoefficientFileError):
        coeffs_from_json(
            {"dim": 2, "lambda": 25, "coeffs": [{"point": [5, 0], "re": 0.0, "im": 0.0}]},
            force_normalize=True,
        )


@pytest.mark.parametrize("force_normalize", [False, True])
@pytest.mark.parametrize("re,total", [(math.nan, "nan"), (math.inf, "inf"), (1e154, "inf")])
def test_loader_refuses_a_non_finite_squared_mass(re, total, force_normalize):
    obj = {
        "dim": 2,
        "lambda": 25,
        "coeffs": [{"point": [5, 0], "re": re, "im": 0.0}, {"point": [0, 5], "re": re, "im": 0.0}],
    }
    with pytest.raises(CoefficientFileError, match=f"non-finite squared mass {total}$"):
        coeffs_from_json(obj, force_normalize=force_normalize)


def test_loader_refuses_fractional_coordinates():
    def load(point, dim=2, lam=25):
        return coeffs_from_json(
            {"dim": dim, "lambda": lam, "coeffs": [{"point": point, "re": 1.0, "im": 0.0}]}
        )

    with pytest.raises(CoefficientFileError, match=r"point \[5\.9, 0\.2\] has a non-integer"):
        load([5.9, 0.2])
    with pytest.raises(CoefficientFileError, match="malformed coefficient file"):
        load([math.inf, 0])
    for point in ([5, 0], [5.0, 0.0]):
        (key,) = load(point).amplitudes
        assert key == (5, 0) and all(type(c) is int for c in key)
    # int() alone would read each of these shells as shell(2, 25)
    for dim, lam, message in [(2.7, 25.9, r'"dim" 2\.7 is not'),
                              (2, 25.9, r'"lambda" 25\.9 is not'),
                              ("2", "25", "\"dim\" '2' is not"),
                              (2, "25", "\"lambda\" '25' is not"),
                              (None, 25, "malformed"), (2, math.inf, "malformed")]:
        with pytest.raises(CoefficientFileError, match=message):
            load([5, 0], dim, lam)
    shell = load([5, 0], 2.0, 25.0).shell
    assert (shell.dim, shell.lam) == (2, 25) and type(shell.dim) is type(shell.lam) is int
