"""FEM core: element stiffness, assembly, solves, compliance."""

import json

import numpy as np
import pytest
import scipy.linalg

import reference_impls as ref
from conftest import kernel_solve
from topareto import fem2d
from topareto.errors import InvalidArgumentError, SolverError
from topareto.fem2d import (DensityField, Grid, ProblemSpec, element_stiffness,
                            kernel_for, preset, simp_modulus)


class TestGrid:
    def test_counts(self):
        g = Grid(3, 2)
        assert g.nel == 6
        assert g.nnodes == 12
        assert g.ndof == 24

    def test_index_round_trip(self):
        g = Grid(5, 3)
        for ix in range(6):
            for iy in range(4):
                assert g.node_id(ix, iy) == ref.node_id(ix, iy, 3)
        # elements in the reference table's order: element ``el`` has the
        # bottom-left node of column ``ex``, row ``ey + 1``
        pairs = [(ex, ey) for ex in range(5) for ey in range(3)]
        edof = fem2d.GridKernel(g, frozenset()).edof
        assert [edof[el, 0] // 2 for el in range(g.nel)] == \
            [g.node_id(ex, ey + 1) for ex, ey in pairs]

    def test_bad_grid(self):
        with pytest.raises(InvalidArgumentError):
            Grid(0, 3)

    def test_element_dofs_match_reference_convention(self):
        # the rows of the kernel's DOF table, one per element
        for shape in ((1, 1), (4, 3), (7, 1), (1, 5), (30, 10)):
            edof = fem2d.GridKernel(Grid(*shape), frozenset()).edof
            assert edof.dtype == np.int64
            assert np.array_equal(edof, ref.element_dof_table(*shape)), shape


class TestElementStiffness:
    def test_matches_quadrature_oracle(self):
        ke = element_stiffness(0.3)
        oracle = ref.quad_element_stiffness(0.3)
        assert np.max(np.abs(ke - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.25, 0.45])
    def test_matches_quadrature_other_ratios(self, nu):
        ke = element_stiffness(nu)
        oracle = ref.quad_element_stiffness(nu)
        assert np.allclose(ke, oracle, rtol=1e-12, atol=1e-14)

    def test_symmetry_exact(self):
        ke = element_stiffness(0.3)
        assert np.array_equal(ke, ke.T)

    @pytest.mark.parametrize("nu", [-0.3, 0.0, 0.3, 0.49])
    def test_rigid_body_modes(self, nu):
        ke = element_stiffness(nu)
        u_tx = np.array([1.0, 0.0] * 4)
        u_ty = np.array([0.0, 1.0] * 4)
        assert np.allclose(ke @ u_tx, 0.0, atol=1e-14)
        assert np.allclose(ke @ u_ty, 0.0, atol=1e-14)
        eigs = np.linalg.eigvalsh(ke)
        assert np.sum(np.abs(eigs) < 1e-12) == 3
        assert np.all(eigs > -1e-12)

    @pytest.mark.parametrize("nu", [-1.0, 0.5, 0.7])
    def test_rejects_bad_poisson(self, nu):
        with pytest.raises(InvalidArgumentError):
            element_stiffness(nu)


def _free(problem):
    free = np.ones(problem.grid.ndof, dtype=bool)
    free[sorted(problem.fixed_dofs)] = False
    return free


def _constrained(k, fixed_dofs):
    """``k`` with fixed rows and columns zeroed and a unit diagonal there."""
    k = k.copy()
    fixed = sorted(fixed_dofs)
    k[fixed, :] = 0.0
    k[:, fixed] = 0.0
    k[fixed, fixed] = 1.0
    return k


def _lower_band(k, rows):
    """The first ``rows`` diagonals of ``k`` in ``assemble_banded`` storage."""
    band = np.zeros((rows, k.shape[0]))
    for d in range(rows):
        band[d, :k.shape[0] - d] = np.diagonal(k, -d)
    return band


class TestAssemble:
    def test_full_density_penal_independent(self, tiny_mbb):
        kern = kernel_for(tiny_mbb)
        ones = np.ones(tiny_mbb.grid.nel)
        ab1 = kern.assemble_banded(simp_modulus(ones, 1.0))
        ab3 = kern.assemble_banded(simp_modulus(ones, 3.0))
        assert np.allclose(ab1 - ab3, 0.0, atol=1e-15)

    def test_half_density_scaling(self, tiny_mbb):
        e_min = 1e-9
        kern = kernel_for(tiny_mbb)
        nel = tiny_mbb.grid.nel
        ab_full = kern.assemble_banded(simp_modulus(np.ones(nel), 3.0))
        ab_half = kern.assemble_banded(simp_modulus(np.full(nel, 0.5), 3.0))
        scale = e_min + 0.125 * (1 - e_min)
        # the unit diagonal at fixed DOFs does not scale
        free = _free(tiny_mbb)
        assert np.allclose(ab_half[:, free], scale * ab_full[:, free], rtol=1e-12)

    def test_checkerboard_against_bruteforce(self):
        problem = preset("mbb", 2, 2)
        vals = np.array([1.0, 0.25, 0.5, 0.75])
        ab = kernel_for(problem).assemble_banded(simp_modulus(vals, 3.0))
        dense = _constrained(ref.loop_stiffness(2, 2, vals, 3.0), problem.fixed_dofs)
        assert np.allclose(ab, _lower_band(dense, ab.shape[0]), rtol=1e-12, atol=1e-15)

    def test_banded_is_lower_band_of_constrained_loop_matrix(self, small_mbb):
        rng = np.random.default_rng(5)
        dens = rng.random(small_mbb.grid.nel)
        k = _constrained(ref.loop_stiffness(30, 10, dens, 3.0), small_mbb.fixed_dofs)
        kern = kernel_for(small_mbb)
        ab = kern.assemble_banded(simp_modulus(dens, 3.0))
        band = _lower_band(k, ab.shape[0])
        assert np.max(np.abs(ab - band)) <= 1e-13 * np.max(np.abs(k))
        # nothing of the matrix lies outside the stored band
        assert not np.any(np.tril(k, -ab.shape[0]))


def _bincount_band(kern, emod, ke=None):
    """Lower band of the constrained stiffness by a scatter-add over the
    element matrices ``ke`` (the kernel's by default) in element order,
    C-ordered: the oracle of the stencil product."""
    ke = kern.ke if ke is None else ke
    i = np.repeat(kern.edof, 8, axis=1).ravel()
    j = np.tile(kern.edof, (1, 8)).ravel()
    fixed = np.zeros(kern.ndof, dtype=bool)
    fixed[kern._fixed_at] = True
    keep = (i >= j) & ~fixed[i] & ~fixed[j]
    vals = (emod[:, None] * ke.ravel()[None, :])[keep.reshape(-1, 64)]
    shape = (kern.bandwidth + 1, kern.ndof)
    ab = np.bincount(((i - j) * kern.ndof + j)[keep], weights=vals,
                     minlength=shape[0] * shape[1]).reshape(shape)
    ab[0, fixed] = 1.0
    return ab


def _in_ulps(got, want, scale):
    """``|got - want|`` in units of ``eps * scale``; infinite where the
    scale is 0 and the values differ."""
    diff = np.abs(got - want)
    return np.divide(diff, np.finfo(float).eps * scale, where=scale > 0,
                     out=np.where(diff > 0, np.inf, 0.0))


def _band_error(kern, emod):
    """Each band entry's distance from the scatter oracle, in units of the
    oracle's rounding scale: ``eps`` times the sum of the absolute values
    of its terms, which is the scatter of ``|ke|`` with the same moduli."""
    return _in_ulps(kern.assemble_banded(emod), _bincount_band(kern, emod),
                    _bincount_band(kern, emod, np.abs(kern.ke)))


def _energy_error(kern, u):
    """Each element energy's distance from the element-major einsum with a
    freshly built ``ke``, in units of ``eps`` times the sum of the absolute
    values of its 64 terms ``u_j ke_jk u_k``."""
    ke = element_stiffness(fem2d.NU)
    ue = u[kern.edof]
    return _in_ulps(kern.element_energies(u),
                    np.maximum(np.einsum("ij,jk,ik->i", ue, ke, ue), 0.0),
                    np.einsum("ij,jk,ik->i", np.abs(ue), np.abs(ke), np.abs(ue)))


def _preset_kernel(name, shape):
    """``kernel_for`` of a preset at ``shape``. A one-column bridge's loads
    all sit on its supports, which makes it no valid problem, so its kernel
    is built from those supports (a pin at the bottom-left node, a roller
    under the bottom-right one) directly."""
    if name == "bridge" and shape[0] == 1:
        ny = shape[1]
        return fem2d.GridKernel(Grid(1, ny), frozenset({2 * ny, 2 * ny + 1, 4 * ny + 3}))
    return kernel_for(preset(name, *shape))


def _odd_supports():
    """A 7x3 problem with fixed DOFs in the interior and in the last node
    column, besides the first."""
    g = Grid(7, 3)
    fixed = {2 * g.node_id(0, 3), 2 * g.node_id(0, 3) + 1, 2 * g.node_id(3, 1),
             2 * g.node_id(3, 1) + 1, 2 * g.node_id(7, 1), 2 * g.node_id(7, 3) + 1}
    return ProblemSpec(g, ((2 * g.node_id(5, 0) + 1, -1.0),), frozenset(fixed), "odd")


def _random_emod(problem, seed, void_solid=False):
    rho = np.random.default_rng(seed).random(problem.grid.nel)
    if void_solid:
        # 1e-9 contrast: the first back-solve misses the residual target
        rho = np.round(rho)
    return simp_modulus(rho, 3.0)


class TestBitIdentity:
    """The stencil assembly and the 8x8 energy product agree with the
    scatter assembly and the element-major einsum to rounding, and the
    stencil's coefficients are exactly those of scipy's build of the band
    operator. The direct LAPACK calls reproduce scipy's banded Cholesky to
    the bit."""

    @pytest.mark.parametrize("shape", [(30, 10), (60, 20), (120, 40), (1, 1), (1, 5), (5, 1),
                                       (7, 3)])
    def test_band_equals_scatter_and_is_fortran_ordered(self, shape):
        for name in sorted(fem2d.PRESET_SIZES):
            kern = _preset_kernel(name, shape)
            emod = simp_modulus(np.random.default_rng(11).random(kern.edof.shape[0]), 3.0)
            # each of at most four terms per entry is rounded once in each
            # sum: 4 eps bounds the gap between two summation orders
            assert np.max(_band_error(kern, emod)) <= 4.0, name
            # LAPACK reads the band in place, without a transposing copy
            assert kern.assemble_banded(emod).flags.f_contiguous

    def test_band_with_interior_and_last_column_fixed_dofs(self):
        problem = _odd_supports()
        kern = kernel_for(problem)
        dens = np.random.default_rng(11).random(problem.grid.nel)
        emod = simp_modulus(dens, 3.0)
        assert np.max(_band_error(kern, emod)) <= 4.0
        # and against the loop-assembled matrix, whose fixed rows and
        # columns hold the unit diagonal and nothing else
        k = _constrained(ref.loop_stiffness(7, 3, dens, 3.0), problem.fixed_dofs)
        ab = kern.assemble_banded(emod)
        assert np.max(np.abs(ab - _lower_band(k, ab.shape[0]))) <= 1e-13 * np.max(np.abs(k))

    def test_band_bound_catches_a_coefficient_off_by_1e_12(self):
        problem = preset("mbb", 30, 10)
        kern = fem2d.GridKernel(problem.grid, problem.fixed_dofs)
        emod = _random_emod(problem, 11)
        assert np.max(_band_error(kern, emod)) <= 4.0
        cols, coef = kern._runs[1]
        coef[np.unravel_index(np.argmax(np.abs(coef)), coef.shape)] *= 1 + 1e-12
        assert np.max(_band_error(kern, emod)) > 4.0

    @pytest.mark.parametrize("void_solid", [False, True])
    @pytest.mark.parametrize("shape", [(30, 10), (60, 20)])
    def test_solve_equals_scipy_banded_cholesky(self, shape, void_solid):
        problem = preset("mbb", *shape)
        kern = kernel_for(problem)
        emod = _random_emod(problem, 12, void_solid)
        f = problem.load_vector()
        cb = scipy.linalg.cholesky_banded(kern.assemble_banded(emod), lower=True)
        # one back-solve per factorization, with no refinement step
        u = scipy.linalg.cho_solve_banded((cb, True), kern.constrained_rhs(f))
        u[kern._fixed_at] = 0.0
        assert np.array_equal(kern.solve(emod, f), u)

    @pytest.mark.parametrize("name", sorted(fem2d.PRESET_SIZES))
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (60, 20), (120, 40)])
    def test_band_operator_equals_scipy_build(self, name, shape):
        """The band as a linear map of the moduli is the operator scipy
        builds from the DOF table, ``ke`` and the fixed DOFs, to the bit.
        Elements of one parity class ``(ex % 2, ey % 2)`` share no node, so
        on moduli that are 1 on one class and 0 elsewhere every entry is one
        term in both assemblies, with no rounding."""
        kern = _preset_kernel(name, shape)
        band_rows, op = ref.scipy_band_operator(kern.edof, kern.ke,
                                                set(kern._fixed_at), kern.ndof)
        ex, ey = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
        for parity in range(4):
            emod = (2 * (ex % 2) + ey % 2 == parity).astype(float)
            want = np.zeros(kern.ndof * (kern.bandwidth + 1))
            want[band_rows] = op @ emod
            want[kern._fixed_at * (kern.bandwidth + 1)] = 1.0
            assert np.array_equal(kern.assemble_banded(emod).ravel(order="F"), want), parity

    @pytest.mark.parametrize("name", sorted(fem2d.PRESET_SIZES))
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (120, 40)])
    def test_csr_dot_equals_matmul_on_band_operator(self, name, shape):
        """``csr_dot`` on scipy's band operator, the one rectangular matrix
        with empty rows it is checked on (the filters are square)."""
        kern = _preset_kernel(name, shape)
        op = ref.scipy_band_operator(kern.edof, kern.ke, set(kern._fixed_at), kern.ndof)[1]
        op = fem2d.Csr(op.indptr, op.indices, op.data, op.shape)
        rng = np.random.default_rng(15)
        for scale in (1e-9, 1.0, 1e9):
            x = rng.random(op.shape[1]) * scale
            x[rng.random(x.size) < 0.25] = 0.0  # exact zeros
            got = fem2d.csr_dot(op, x)
            assert got.shape == (op.shape[0],)
            assert np.array_equal(got, ref.scipy_csr(op) @ x)
        # the kernel would read past a short vector
        with pytest.raises(ValueError, match="shape"):
            fem2d.csr_dot(op, np.ones(op.shape[1] - 1))

    @pytest.mark.parametrize("name", sorted(fem2d.PRESET_SIZES))
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (30, 10), (120, 40), (1, 5), (5, 1),
                                       (60, 20)])
    def test_element_energies_equal_element_major_einsum(self, name, shape):
        kern = _preset_kernel(name, shape)
        rng = np.random.default_rng(14)
        fields = [np.zeros(kern.ndof)]
        for scale in 10.0 ** np.arange(-12, 15, 2):
            u = rng.standard_normal(kern.ndof) * scale
            u[rng.random(kern.ndof) < 0.25] = 0.0  # exact zeros
            fields.append(u)
        for u in fields:
            assert np.max(_energy_error(kern, u)) <= 64.0

    def test_energy_bound_catches_a_coefficient_off_by_1e_12(self):
        problem = preset("mbb", 30, 10)
        kern = fem2d.GridKernel(problem.grid, problem.fixed_dofs)
        u = np.random.default_rng(14).standard_normal(kern.ndof)
        assert np.max(_energy_error(kern, u)) <= 64.0
        kern.ke = kern.ke.copy()
        kern.ke[0, 0] *= 1 + 1e-12
        assert np.max(_energy_error(kern, u)) > 64.0


class TestSolve:
    def test_single_element_dense_oracle(self):
        problem = preset("mbb", 1, 1)
        u = kernel_solve(problem, np.ones(1), 3.0)
        c_ref, u_ref = ref.fem_compliance(1, 1, [1.0], 3.0, problem.loads,
                                          problem.fixed_dofs)
        assert np.allclose(u, u_ref, atol=1e-10)

    def test_residual_contract_and_fixed_dofs(self, small_mbb):
        rng = np.random.default_rng(7)
        dens = 0.2 + 0.8 * rng.random(small_mbb.grid.nel)
        k = ref.loop_stiffness(30, 10, dens, 3.0)
        u = kernel_solve(small_mbb, dens, 3.0)
        f = small_mbb.load_vector()
        free = _free(small_mbb)
        ku = kernel_for(small_mbb).apply_constrained(simp_modulus(dens, 3.0), u)
        for product in (k @ u, ku):
            resid = np.linalg.norm((f - product)[free])
            assert resid <= 1e-8 * np.linalg.norm(f)
        assert np.all(u[~free] == 0.0)

    def test_zero_load_gives_zero(self, tiny_mbb):
        silent = ProblemSpec(tiny_mbb.grid, ((tiny_mbb.loads[0][0], 0.0),),
                             tiny_mbb.fixed_dofs, "silent")
        u = kernel_solve(silent, np.ones(tiny_mbb.grid.nel), 3.0)
        assert np.all(u == 0.0)

    def test_linearity_modulus_doubling(self, tiny_mbb):
        nel = tiny_mbb.grid.nel
        u_half = kernel_solve(tiny_mbb, np.full(nel, 0.5), 1.0)
        u_full = kernel_solve(tiny_mbb, np.ones(nel), 1.0)
        # modulus e_min + 0.5(1-e_min) is half of 1.0 up to the tiny floor
        assert np.allclose(u_half, 2.0 * u_full, rtol=1e-6)

    def test_matches_reference_fem_on_random_densities(self, small_mbb):
        rng = np.random.default_rng(3)
        dens = 0.3 + 0.7 * rng.random(small_mbb.grid.nel)
        u = kernel_solve(small_mbb, dens, 3.0)
        _, u_ref = ref.fem_compliance(30, 10, dens, 3.0, small_mbb.loads,
                                      small_mbb.fixed_dofs)
        assert np.allclose(u, u_ref, rtol=1e-6, atol=1e-9)

    def test_singular_raises(self):
        # supports that leave rigid-body modes free: no valid problem, so
        # the kernel is built directly
        kern = fem2d.GridKernel(Grid(2, 2), frozenset({0}))
        f = np.zeros(kern.ndof)
        f[1] = -1.0
        with pytest.raises(SolverError, match="banded Cholesky failed"):
            kern.solve(simp_modulus(np.ones(4), 1.0), f)

    def test_residual_failure_names_residual_and_limit(self, tiny_mbb):
        kern = fem2d.GridKernel(tiny_mbb.grid, tiny_mbb.fixed_dofs)
        # a back-solve that returns nothing leaves the whole load unbalanced
        kern.factorize = lambda emod: (lambda rhs: np.zeros_like(rhs))
        f = tiny_mbb.load_vector()
        fnorm = np.linalg.norm(kern.constrained_rhs(f))
        with pytest.raises(SolverError) as info:
            kern.solve(np.ones(tiny_mbb.grid.nel), f)
        assert info.value.residual == pytest.approx(fnorm)
        limit = 10 * fem2d.RESID_TOL * fnorm
        assert str(info.value) == (f"linear solve residual {fnorm:.3e} "
                                   f"exceeds limit {limit:.3e}")


def _counting_back_solves(problem):
    """A fresh kernel whose back-solves append to the returned list."""
    kern = fem2d.GridKernel(problem.grid, problem.fixed_dofs)
    calls, factorize = [], kern.factorize

    def counted_factorize(emod):
        solve_rhs = factorize(emod)

        def counted(rhs):
            calls.append(1)
            return solve_rhs(rhs)
        return counted
    kern.factorize = counted_factorize
    return kern, calls


class TestOneBackSolve:
    """A solve takes one back-solve, whether its residual is at
    ``RESID_TOL`` or at the backward-error floor above it."""

    def test_void_solid_solve_back_solves_once_and_is_accepted(self):
        problem = preset("mbb", 60, 20)
        kern, calls = _counting_back_solves(problem)
        limits, resid_limit = [], kern._resid_limit
        kern._resid_limit = lambda *args: limits.append(1) or resid_limit(*args)
        # void-solid at 1e-9 contrast: the residual sits near 1e-5 relative
        emod = _random_emod(problem, 12, void_solid=True)
        f = problem.load_vector()
        u = kern.solve(emod, f)
        assert len(calls) == 1
        # the limit that accepts the solve is computed once
        assert len(limits) == 1
        fc = kern.constrained_rhs(f)
        r = fc - kern.apply_constrained(emod, u)
        r[kern._fixed_at] = 0.0
        fnorm = np.linalg.norm(fc)
        assert fem2d.RESID_TOL * fnorm < np.linalg.norm(r) <= kern._resid_limit(emod, u, fnorm)

    def test_well_conditioned_solve_back_solves_once(self):
        problem = preset("mbb", 60, 20)
        kern, calls = _counting_back_solves(problem)
        kern.solve(_random_emod(problem, 12), problem.load_vector())
        assert len(calls) == 1


class TestCompliance:
    def test_single_point_load_definition(self, tiny_mbb):
        u = kernel_solve(tiny_mbb, np.ones(tiny_mbb.grid.nel), 3.0)
        f = tiny_mbb.load_vector()
        dof, mag = tiny_mbb.loads[0]
        assert float(f @ u) == pytest.approx(mag * u[dof], rel=1e-12)
        assert float(f @ u) > 0

    def test_quadratic_in_load_scale(self, tiny_mbb):
        ones = np.ones(tiny_mbb.grid.nel)
        scaled = ProblemSpec(tiny_mbb.grid,
                             tuple((d, 3.0 * m) for d, m in tiny_mbb.loads),
                             tiny_mbb.fixed_dofs, "scaled")
        c1 = float(tiny_mbb.load_vector() @ kernel_solve(tiny_mbb, ones, 3.0))
        c9 = float(scaled.load_vector() @ kernel_solve(scaled, ones, 3.0))
        assert c9 == pytest.approx(9.0 * c1, rel=1e-9)

    def test_desk_mbb_matches_reference_fem(self, desk_mbb):
        u = kernel_solve(desk_mbb, np.ones(desk_mbb.grid.nel), 3.0)
        c = float(desk_mbb.load_vector() @ u)
        c_ref, _ = ref.fem_compliance(60, 20, np.ones(1200), 3.0,
                                      desk_mbb.loads, desk_mbb.fixed_dofs)
        assert abs(c - c_ref) / c_ref <= 0.005


class TestInvariants:
    def test_stiffer_never_more_compliant(self):
        problem = preset("mbb", 6, 4)
        f = problem.load_vector()
        rng = np.random.default_rng(11)
        for _ in range(8):
            lo = rng.uniform(0.05, 0.6, problem.grid.nel)
            hi = np.clip(lo + rng.uniform(0.0, 0.4, problem.grid.nel), 0, 1)
            c_lo = float(f @ kernel_solve(problem, lo, 1.0))
            c_hi = float(f @ kernel_solve(problem, hi, 1.0))
            assert c_hi <= c_lo * (1 + 1e-9)

    def test_compliance_inversely_proportional_to_modulus(self, tiny_mbb):
        # uniform density at p=1 scales the matrix like a modulus scale
        f = tiny_mbb.load_vector()
        nel = tiny_mbb.grid.nel
        c_half = float(f @ kernel_solve(tiny_mbb, np.full(nel, 0.5), 1.0))
        c_full = float(f @ kernel_solve(tiny_mbb, np.ones(nel), 1.0))
        assert c_half == pytest.approx(2.0 * c_full, rel=1e-6)

    def test_assembly_affine_in_densities_at_p1(self, tiny_mbb):
        rng = np.random.default_rng(13)
        a = rng.random(tiny_mbb.grid.nel)
        b = rng.random(tiny_mbb.grid.nel)
        mix = 0.3 * a + 0.7 * b
        kern = kernel_for(tiny_mbb)
        k_mix, k_a, k_b = (kern.assemble_banded(simp_modulus(x, 1.0))
                           for x in (mix, a, b))
        # affine combination preserves the e_min floor and the unit
        # diagonal at fixed DOFs exactly
        assert np.allclose(k_mix, 0.3 * k_a + 0.7 * k_b, rtol=1e-12, atol=1e-13)

    def test_front_invariant_to_load_magnitude(self, tiny_mbb):
        # unit-load normalization removes the load scale entirely
        scaled = ProblemSpec(tiny_mbb.grid,
                             tuple((d, 17.0 * m) for d, m in tiny_mbb.loads),
                             tiny_mbb.fixed_dofs, "scaled")
        a = tiny_mbb.with_unit_load().load_vector()
        b = scaled.with_unit_load().load_vector()
        assert np.allclose(a, b, rtol=1e-12)


class TestProblemSpec:
    def test_json_round_trip(self, desk_mbb):
        back = ProblemSpec.from_json(desk_mbb.to_json())
        assert back == desk_mbb

    @pytest.mark.parametrize("name", [5, None])
    def test_json_name_must_be_a_string(self, tiny_mbb, name):
        doc = {**json.loads(tiny_mbb.to_json()), "name": name}
        with pytest.raises(InvalidArgumentError, match=f"name must be a string, got {name}"):
            ProblemSpec.from_json(json.dumps(doc))

    def test_load_dof_bounds_checked(self):
        g = Grid(2, 2)
        with pytest.raises(InvalidArgumentError):
            ProblemSpec(g, ((999, -1.0),), frozenset({0}))

    def test_empty_loads_rejected(self):
        g = Grid(2, 2)
        with pytest.raises(InvalidArgumentError):
            ProblemSpec(g, tuple(), frozenset({0}))

    @pytest.mark.parametrize("fixed", [
        set(),
        {0},  # one x DOF: y translation and rotation free
        {2 * n for n in range(4)},  # the left edge in x: y translation free
        {2 * n + 1 for n in range(3, 28, 4)},  # the bottom edge in y: x free
        {0, 1},  # a pin: rotation about it free
        {0, 1, 3},  # a pin and a y roller below it: rotation free
    ])
    def test_supports_leaving_a_rigid_mode_free_rejected(self, fixed):
        g = Grid(6, 3)
        with pytest.raises(InvalidArgumentError,
                           match="problem 'loose': the supports leave a rigid-body mode free"):
            ProblemSpec(g, ((53, -1.0),), frozenset(fixed), "loose")

    def test_supports_fixing_every_rigid_mode_accepted(self):
        g = Grid(6, 3)
        # a pin and an x roller below it, and a pin and a y roller beside it
        for fixed in ({0, 1, 2}, {0, 1, 9}):
            ProblemSpec(g, ((53, -1.0),), frozenset(fixed))
        for name in fem2d.PRESET_SIZES:
            for shape in ((1, 1), (7, 3), (60, 20)):
                if (name, shape) != ("bridge", (1, 1)):
                    preset(name, *shape)

    def test_loads_all_on_fixed_dofs_rejected(self):
        g = Grid(6, 3)
        with pytest.raises(InvalidArgumentError,
                           match="problem 'held': every load is on a fixed DOF"):
            ProblemSpec(g, ((1, -1.0), (0, 2.0)), frozenset({0, 1, 2}), "held")
        # one load off the supports is enough
        ProblemSpec(g, ((1, -1.0), (4, 2.0)), frozenset({0, 1, 2}), "held")
        # the 1x1 bridge puts both its loads on its supports
        with pytest.raises(InvalidArgumentError, match="every load is on a fixed DOF"):
            preset("bridge", 1, 1)

    def test_presets_solve_at_full_density(self):
        for name in ("mbb", "bridge", "complex"):
            problem = preset(name, 12, 6)
            u = kernel_solve(problem, np.ones(problem.grid.nel), 3.0)
            c = float(problem.load_vector() @ u)
            assert c > 0

    @pytest.mark.parametrize("name", ["mbb", "bridge", "complex"])
    def test_preset_sizes(self, name):
        default = {"mbb": (60, 20), "bridge": (60, 20), "complex": (60, 30)}[name]
        g = preset(name).grid
        assert (g.nelx, g.nely) == default
        g = preset(name, None, 5).grid
        assert (g.nelx, g.nely) == (default[0], 5)
        # a zero size is an error, not the default
        for sizes in ((0, 4), (4, 0), (-3, 4)):
            with pytest.raises(InvalidArgumentError):
                preset(name, *sizes)
        with pytest.raises(InvalidArgumentError):
            preset("cantilever")

    def test_density_field_bounds(self):
        with pytest.raises(InvalidArgumentError):
            DensityField(np.array([0.2, 1.4]))
        with pytest.raises(InvalidArgumentError):
            DensityField(np.array([-0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_field_rejects_non_finite(self, bad):
        # NaN compares False both ways, so a bounds test alone lets it in
        with pytest.raises(InvalidArgumentError, match="finite"):
            DensityField(np.array([bad, 0.5]))
