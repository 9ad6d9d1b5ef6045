"""Independent oracles for the spectral solvers and the operator assembly.

* Finite differences for the 1D wall-value problems: second-order central
  differences on a uniform grid with Richardson extrapolation, kept
  deliberately separate from the spectral solvers they check.
* The oracles' x-rule: `x_rule` gives max(8, 4 modes_x) equispaced x-nodes
  and their weight, `quad_weights_domain` the tensor product with the grid's
  Gauss rule in y, and `sample_fields` the samples of a stack of fields and
  their gradients there, by an inverse real FFT.  slipflow integrates in x
  by Parseval on the Fourier coefficients and samples in x only in
  `Convection`, on its own 3 modes_x + 1 nodes; this rule is independent of
  both.
* `sampled_convection_tensors`: the dense convection tensor by quadrature
  on the sampled (n_x, n_q) grid, every field sampled by `sample_fields` and
  every product formed pointwise.  The dynamics module assembles the same
  tensor triad by triad from the Fourier coefficients, without sampling;
  this is the reference it is tested against.
* `advective_convection`: the pseudospectral convection in advective form,
  ((y . grad) y, e_i) from the velocity and its gradient sampled on the
  grid.  The dynamics module's `Convection` samples only the velocity and
  evaluates the divergence form; this is the reference it is tested
  against.
* The loop forms of the set-up layers: `loop_diff_matrix` and
  `loop_interp_matrix` build the barycentric grid matrices one entry and
  one target at a time, `loop_basis_fields` writes each basis entry into a
  zero field of its own by 1-D mat-vecs and stacks them, and
  `loop_lifting_fields` lifts one unit control coefficient at a time
  through single-row harmonic and correction solves.  `geometry` builds
  the matrices by broadcasting, the basis applies each derivative matrix
  once to the (m, n_y, 1) stack of all its profiles and scatters the rows
  at their modes, and `LiftingCache` lifts every coefficient in one stacked
  pass; these are the references they are tested against.
"""

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from slipflow.basis import FAMILY_COS, FAMILY_SHEAR, ModeField
from slipflow.lifting import (
    BoundaryControl,
    project_compatible,
    solve_correction,
    solve_harmonic,
)


def _fd_harmonic_once(k, a_bottom, a_top, n):
    """H'' - k^2 H = 0 with -H'(0) = a_bottom, H'(1) = a_top; n+1 nodes."""
    h = 1.0 / n
    m = n + 1
    rows = scipy.sparse.lil_matrix((m, m), dtype=complex)
    rhs = np.zeros(m, complex)
    for i in range(1, n):
        rows[i, i - 1] = 1.0
        rows[i, i] = -2.0 - (k * h) ** 2
        rows[i, i + 1] = 1.0
    # one-sided second-order first derivatives at the walls
    rows[0, 0], rows[0, 1], rows[0, 2] = 3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h)
    rhs[0] = a_bottom  # -H'(0) = a_b
    rows[n, n], rows[n, n - 1], rows[n, n - 2] = 3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h)
    rhs[n] = a_top  # H'(1) = a_t
    sol = scipy.sparse.linalg.spsolve(rows.tocsr(), rhs)
    return np.linspace(0.0, 1.0, m), sol


def fd_harmonic(k, a_bottom, a_top, n=2000):
    """Richardson-extrapolated profile at the coarse nodes (4th order)."""
    y, coarse = _fd_harmonic_once(k, a_bottom, a_top, n)
    _, fine = _fd_harmonic_once(k, a_bottom, a_top, 2 * n)
    return y, (4.0 * fine[::2] - coarse) / 3.0


def _fd_stokes_shear_once(alpha, bt_bottom, bt_top, n):
    """u'' = G with -u'(0)+a u(0)=bt_b, u'(1)+a u(1)=-bt_t, zero-mean u."""
    h = 1.0 / n
    m = n + 2  # nodes plus the constant G
    a = scipy.sparse.lil_matrix((m, m))
    rhs = np.zeros(m)
    for i in range(1, n):
        a[i, i - 1] = 1.0
        a[i, i] = -2.0
        a[i, i + 1] = 1.0
        a[i, n + 1] = -h * h
    a[0, 0] = 3.0 / (2 * h) + alpha
    a[0, 1] = -4.0 / (2 * h)
    a[0, 2] = 1.0 / (2 * h)
    rhs[0] = bt_bottom
    a[n, n] = 3.0 / (2 * h) + alpha
    a[n, n - 1] = -4.0 / (2 * h)
    a[n, n - 2] = 1.0 / (2 * h)
    rhs[n] = -bt_top
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    a[n + 1, : n + 1] = w
    sol = scipy.sparse.linalg.spsolve(a.tocsr(), rhs)
    return np.linspace(0.0, 1.0, n + 1), sol[: n + 1]


def fd_stokes_shear(alpha, bt_bottom, bt_top, n=2000):
    y, coarse = _fd_stokes_shear_once(alpha, bt_bottom, bt_top, n)
    _, fine = _fd_stokes_shear_once(alpha, bt_bottom, bt_top, 2 * n)
    return y, (4.0 * fine[::2] - coarse) / 3.0


def _fd_stokes_mode_once(k, alpha, bt_bottom, bt_top, n):
    """Streamfunction correction: phi'' - k^2 phi = w, w'' - k^2 w = 0,
    phi(0) = phi(1) = 0, w(0) = alpha phi'(0) - bt_b, w(1) = -bt_t - alpha phi'(1).
    """
    h = 1.0 / n
    m = 2 * (n + 1)
    a = scipy.sparse.lil_matrix((m, m), dtype=complex)
    rhs = np.zeros(m, complex)

    def phi(i):
        return i

    def om(i):
        return n + 1 + i

    a[phi(0), phi(0)] = 1.0
    a[phi(n), phi(n)] = 1.0
    for i in range(1, n):
        a[phi(i), phi(i - 1)] = 1.0
        a[phi(i), phi(i)] = -2.0 - (k * h) ** 2
        a[phi(i), phi(i + 1)] = 1.0
        a[phi(i), om(i)] = -h * h
        a[om(i), om(i - 1)] = 1.0
        a[om(i), om(i)] = -2.0 - (k * h) ** 2
        a[om(i), om(i + 1)] = 1.0
    a[om(0), om(0)] = 1.0
    a[om(0), phi(0)] = alpha * 3.0 / (2 * h)
    a[om(0), phi(1)] = -alpha * 4.0 / (2 * h)
    a[om(0), phi(2)] = alpha * 1.0 / (2 * h)
    rhs[om(0)] = -bt_bottom
    a[om(n), om(n)] = 1.0
    a[om(n), phi(n)] = alpha * 3.0 / (2 * h)
    a[om(n), phi(n - 1)] = -alpha * 4.0 / (2 * h)
    a[om(n), phi(n - 2)] = alpha * 1.0 / (2 * h)
    rhs[om(n)] = -bt_top
    sol = scipy.sparse.linalg.spsolve(a.tocsr(), rhs)
    return np.linspace(0.0, 1.0, n + 1), sol[: n + 1]


def fd_stokes_mode(k, alpha, bt_bottom, bt_top, n=2000):
    y, coarse = _fd_stokes_mode_once(k, alpha, bt_bottom, bt_top, n)
    _, fine = _fd_stokes_mode_once(k, alpha, bt_bottom, bt_top, 2 * n)
    return y, (4.0 * fine[::2] - coarse) / 3.0


def x_rule(grid):
    """(x_nodes, w_x): n_x = max(8, 4 modes_x) equispaced nodes on [0, L_x),
    each of weight L_x / n_x.  The rule is exact on trigonometric polynomials
    of degree below n_x, so on the triple products of band-modes_x fields."""
    n_x = max(8, 4 * grid.spec.modes_x)
    return np.arange(n_x) * (grid.spec.length_x / n_x), grid.spec.length_x / n_x


def quad_weights_domain(grid):
    """(n_x, n_q) tensor-product weights of `x_rule` and the grid's Gauss rule;
    they sum to the channel area L_x * 1."""
    x, w_x = x_rule(grid)
    return np.full((x.size, 1), w_x) * grid.w_y[None, :]


def sample_fields(fields):
    """Samples of a stack of m fields at the (n_x, n_q) nodes of `x_rule` and
    the Gauss rule, one irfft per 16 fields.

    The result is (m, 6, n_x, n_q) with rows (v1, v2, d_x v1, d_y v1,
    d_x v2, d_y v2).
    """
    grid, vals, dvals = fields.grid, fields.vals, fields.dvals
    n_x = x_rule(grid)[0].size
    m, nj = vals.shape[:2]
    ik = 1j * grid.kx[:nj, None]
    out = np.empty((m, 6, n_x, grid.n_q))
    for s in range(0, m, 16):  # bounds the complex temporaries
        v, d = vals[s : s + 16], dvals[s : s + 16]
        spec = np.zeros((v.shape[0], 6, n_x // 2 + 1, grid.n_q), complex)
        spec[:, :2, :nj] = v.transpose(0, 2, 1, 3)
        spec[:, 2, :nj] = ik * v[:, :, 0]
        spec[:, 3, :nj] = d[:, :, 0]
        spec[:, 4, :nj] = ik * v[:, :, 1]
        spec[:, 5, :nj] = d[:, :, 1]
        spec *= n_x
        out[s : s + 16] = np.fft.irfft(spec, n=n_x, axis=2)
    return out


def _sampled_convection(test_w, u, grad_v):
    """C[i, p, q] = ((u_p . grad) v_q, e_i) from sampled fields.

    test_w (n, 2, n_x, n_q) holds the quadrature-weighted test fields, u the
    (P, 2, n_x, n_q) advecting velocities and grad_v the (Q, 4, n_x, n_q)
    gradients (d_x v1, d_y v1, d_x v2, d_y v2) of the advected fields.  One
    GEMM per p contracts both components.
    """
    n, n_p, n_v = test_w.shape[0], u.shape[0], grad_v.shape[0]
    test = test_w.reshape(n, -1)
    gx, gy = grad_v[:, 0::2], grad_v[:, 1::2]
    out = np.empty((n, n_p, n_v))
    w, tmp = np.empty(gx.shape), np.empty(gx.shape)
    for p in range(n_p):
        np.multiply(gx, u[p, 0], out=w)
        w += np.multiply(gy, u[p, 1], out=tmp)
        out[:, p] = test @ w.reshape(n_v, -1).T
    return out


def sampled_convection_tensors(basis, cache):
    """(C, scale): C[i, p, q] = ((z_p . grad) z_q, e_i) over the joint stack z
    of the basis entries and the lifted unit fields, by quadrature on the
    sampled grid, the stack sampled once.

    scale bounds the summed magnitudes of the quadrature terms of any entry
    of the basis block C[:, :n, :n]: the scale of its rounding, even where
    the entry vanishes in exact arithmetic.
    """
    g, n, a = basis.grid, basis.size, padded(cache.fields)
    z = sample_fields(ModeField(g, *(np.concatenate([getattr(basis.fields, k), getattr(a, k)])
                                     for k in ("vals", "dvals", "wall_vals", "wall_dvals"))))
    e = z[:n]
    test_w = e[:, :2] * quad_weights_domain(g)
    u_max, g_max = (max(x.max(), -x.min()) for x in (e[:, :2], e[:, 2:]))
    scale = 2.0 * np.abs(test_w).sum(axis=(1, 2, 3)).max() * u_max * g_max
    return _sampled_convection(test_w, z[:, :2], z[:, 2:]), scale


def advective_convection(basis, fields, z):
    """(W, n) coefficients ((y . grad) y, e_i) of the rows z = (beta, gamma) of
    the span of the basis entries and the stack `fields`.

    Every field is sampled with its gradient by `sample_fields`, y
    and grad y are their combinations by the rows z, (y . grad) y is formed
    pointwise and projected by quadrature against the sampled test fields.
    """
    g = basis.grid
    e = sample_fields(basis.fields)
    y = np.tensordot(z, np.concatenate([e, sample_fields(fields)]), axes=1)
    # sample rows (v1, v2, d_x v1, d_y v1, d_x v2, d_y v2)
    adv = np.stack([y[:, 0] * y[:, 2] + y[:, 1] * y[:, 3],
                    y[:, 0] * y[:, 4] + y[:, 1] * y[:, 5]], axis=1)
    test_w = e[:, :2] * quad_weights_domain(g)
    return adv.reshape(len(z), -1) @ test_w.reshape(len(test_w), -1).T


def loop_diff_matrix(nodes, bary_w):
    """Barycentric differentiation matrix, entry by entry."""
    n = nodes.size
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = (bary_w[j] / bary_w[i]) / (nodes[i] - nodes[j])
    d[np.diag_indices(n)] = -d.sum(axis=1)
    return d


def loop_interp_matrix(nodes, bary_w, targets):
    """Barycentric interpolation matrix, target by target."""
    p = np.zeros((targets.size, nodes.size))
    for m, t in enumerate(targets):
        hit = np.nonzero(np.isclose(t, nodes, rtol=0.0, atol=1e-14))[0]
        if hit.size:
            p[m, hit[0]] = 1.0
            continue
        terms = bary_w / (t - nodes)
        p[m] = terms / terms.sum()
    return p


def stack_fields(fields):
    """One stack of the given single fields on the first one's grid."""
    return ModeField(fields[0].grid, *(np.stack([getattr(f, a) for f in fields])
                                       for a in ("vals", "dvals", "wall_vals", "wall_dvals")))


def padded(fields):
    """A stack of fields on its grid's full band, modes 0..modes_x: the stack's
    own modes, zeros above them."""
    out = ModeField.zeros(fields.grid, stack=fields.vals.shape[:-3])
    for a in ("vals", "dvals", "wall_vals", "wall_dvals"):
        getattr(out, a)[..., : fields.n_modes + 1, :, :] = getattr(fields, a)
    return out


def loop_basis_fields(basis):
    """(fields, tau_trace) of a basis, entry by entry: each generating profile
    written into a zero field of its own by 1-D mat-vecs, then the fields
    stacked."""
    g = basis.grid
    walls = [0, -1]
    fields, tau = [], []
    for j, fam, prof in zip(basis.mode_j, basis.family, basis.profiles_cgl):
        f = ModeField.zeros(g)
        if fam == FAMILY_SHEAR:
            f.vals[0, 0] = g.interp @ prof
            f.dvals[0, 0] = g.interp_d1 @ prof
            f.wall_vals[0, 0] = prof[walls]
            f.wall_dvals[0, 0] = (g.d1 @ prof)[walls]
        else:
            phi = np.asarray(prof, dtype=complex) * (0.5 if fam == FAMILY_COS else -0.5j)
            ik = -1j * g.kx[j]
            dphi = g.d1 @ phi
            f.vals[j, 0] = g.interp @ dphi
            f.vals[j, 1] = ik * (g.interp @ phi)
            f.dvals[j, 0] = g.interp_d2 @ phi
            f.dvals[j, 1] = ik * (g.interp @ dphi)
            f.wall_vals[j, 0] = dphi[walls]
            f.wall_vals[j, 1] = ik * phi[walls]
            f.wall_dvals[j, 0] = (g.d2 @ phi)[walls]
            f.wall_dvals[j, 1] = ik * dphi[walls]
        fields.append(f)
        tau.append(f.tangential_trace_coeffs()[j])
    return stack_fields(fields), np.array(tau)


def loop_lifting_fields(grid, n_modes):
    """The lifted unit fields of a LiftingCache, one coefficient at a time."""
    lx = grid.spec.length_x
    fields = []
    for c in range(BoundaryControl.zeros(lx, n_modes, [0.0], 4.0).n_dofs):
        unit = BoundaryControl.zeros(lx, n_modes, [0.0], 4.0)
        unit.gamma[0, c] = 1.0
        unit = project_compatible(unit)
        table = unit.coeffs(unit.gamma[0])
        har = solve_harmonic(table[0], table[1], grid, n_modes)
        stress = har.tangential_stress_coeffs()[: n_modes + 1]
        corr = solve_correction(table[2] - stress[:, 0], table[3] - stress[:, 1], grid, n_modes)
        fields.append(har + corr)
    return stack_fields(fields)


def loop_samples(conv, z):
    """`Convection.samples` one x-mode at a time: per mode j one stacked
    product of the rows (..., n + n_a) z it reads, unpadded, by its table."""
    lead = z.shape[:-1]
    spec = np.zeros(lead + (2 * conv.n_bins, conv.s_tab.shape[-1] // 2))
    for j, m in enumerate(conv.s_len):
        if m:
            out = spec[..., 2 * j : 2 * j + 2, :].reshape(lead + (-1,))
            np.matmul(z[..., conv.s_idx[j, :m]], conv.s_tab[j, :m], out=out)
    return np.matmul(conv.to_grid, spec)


def loop_project(conv, s):
    """`Convection.project` one x-mode at a time: per mode j one stacked
    product of the analysed products by the columns of its own entries."""
    lead, half = s.shape[:-2], s.shape[-1] // 2
    f_sq = np.matmul(conv.from_grid, s * s)
    f_cross = np.matmul(conv.from_grid, s[..., :half] * s[..., half:])
    out = np.empty(lead + (conv.n,))
    mode, col = np.divmod(conv.pos, conv.p_tab.shape[-1])
    for j in range(conv.n_bins):
        own = np.flatnonzero(mode == j)
        if own.size:
            # rows [re | im] of (v1^2, v2^2), then [re | im] of v1 v2
            table = np.ascontiguousarray(conv.p_tab[j][:, col[own]])
            out[..., own] = (f_sq[..., 2 * j : 2 * j + 2, :].reshape(lead + (-1,))
                             @ table[: 4 * half]
                             + f_cross[..., 2 * j : 2 * j + 2, :].reshape(lead + (-1,))
                             @ table[4 * half :])
    return out
