"""Evidential head: activations, mass assignment, fusion, decisions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evidseg.evidential_head import (BACKGROUND, CODE_BACKGROUND, CODE_IGNORANCE,
                                     CODE_LESION, IGNORANCE, K, LESION, bba,
                                     decide, dempster_fuse,
                                     distance_activation, es_forward,
                                     fuse_mass_arrays, memberships,
                                     pignistic_lesion, strengths)
from evidseg.tensor_core import Tensor
from helpers import (powerset_fuse, random_es_params, random_simple_bba,
                     tape_dempster_fuse, tape_es_forward)


def log_space_fuse(planes):
    """Dempster fusion of (N, 3, I, V) planes with each product taken as
    the exponentiated sum of its factors' logs, and the same test for
    total conflict: the reference for where fusion gives up."""
    omega = planes[:, K:]
    w = np.exp(np.log(planes[:, :K] + omega).sum(axis=2))
    o = np.exp(np.log(omega).sum(axis=2))
    norm = (w - o).sum(axis=1, keepdims=True) + o
    if np.any(norm < np.finfo(norm.dtype).tiny):
        raise ArithmeticError("total conflict in Dempster combination")
    return np.concatenate([w - o, o], axis=1) / norm


def single_prototype_bba(alpha, gamma, u_lesion, d2):
    """Reference evaluation of one prototype's mass function."""
    s = np.exp(-gamma * d2)
    return np.array([alpha * u_lesion * s, alpha * (1 - u_lesion) * s,
                     1 - alpha * s])


class TestEsParams:
    """The constrained values of the `es.*` parameters."""

    def test_membership_rows_sum_to_one(self):
        es = random_es_params(np.random.default_rng(0))
        np.testing.assert_allclose(
            memberships(es["es.membership_logits"]).sum(axis=1), 1.0,
            atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tensor_softmax_is_memberships(self, seed):
        es = random_es_params(np.random.default_rng(seed), prototypes=7)
        v = es["es.membership_logits"]
        u = Tensor(v).softmax(axis=1).data
        np.testing.assert_array_equal(u, memberships(v))

    def test_alphas_in_open_unit_interval(self):
        es = random_es_params(np.random.default_rng(1))
        alphas = strengths(es["es.alpha_logits"])
        assert np.all(alphas > 0) and np.all(alphas < 1)


class TestDistanceActivation:
    def test_feature_on_prototype_gives_one(self):
        p = np.array([[1.0, -2.0, 0.5]])
        s = distance_activation(Tensor(p.reshape(1, 3, 1)), p,
                                np.array([0.3])).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_zero_gamma_gives_one_everywhere(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((10, 3))
        p = rng.standard_normal((2, 3))
        s = distance_activation(Tensor(f.T[None]), p, np.zeros(2)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_hand_value_exp_minus_one(self):
        # gamma 0.01 at squared distance 100
        f = np.array([[[10.0]]])
        p = np.array([[0.0]])
        s = distance_activation(Tensor(f), p, np.array([0.1])).data
        np.testing.assert_allclose(s, np.exp(-1.0), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance_activation(Tensor(np.zeros((1, 3, 2))),
                                np.zeros((2, 4)), np.zeros(2))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(4)
        s = distance_activation(Tensor(rng.standard_normal((20, 3)).T[None]),
                                rng.standard_normal((5, 3)),
                                rng.uniform(0, 2, 5)).data
        assert np.all(s > 0) and np.all(s <= 1)

    def test_float32_feature_on_prototype_stays_at_most_one(self):
        # |f|^2 - 2 f.p + |p|^2 rounds below 0 for some f = p in float32,
        # which made s exceed 1 and 1 - alpha s negative for alpha near 1
        f = (10.0 * np.random.default_rng(12).standard_normal((1000, 4))
             ).astype(np.float32)
        s = distance_activation(Tensor(f.T[None]), f[:20],
                                np.full(20, 3.0, np.float32)).data
        assert s.max() <= 1.0


class TestBba:
    def test_zero_distance_half_alpha(self):
        # alpha 0.5, memberships (0.7, 0.3), feature on the prototype
        masses = bba(Tensor(np.ones((1, 1, 1))), np.log([[0.7, 0.3]]),
                     np.zeros(1)).data
        m_sing, m_omega = masses[:, :K], masses[:, IGNORANCE]
        np.testing.assert_allclose(m_sing[0, :, 0, 0], [0.35, 0.15],
                                   atol=1e-12)
        np.testing.assert_allclose(m_omega[0, 0, 0], 0.5, atol=1e-12)

    def test_distant_feature_vacuous(self):
        masses = bba(Tensor(np.zeros((1, 1, 1))), np.log([[0.7, 0.3]]),
                     np.zeros(1)).data
        m_sing, m_omega = masses[:, :K], masses[:, IGNORANCE]
        np.testing.assert_allclose(m_sing, 0.0, atol=1e-15)
        np.testing.assert_allclose(m_omega, 1.0, atol=1e-15)

    def test_hand_value_at_exp_minus_one(self):
        # alpha 0.5, u (0.7, 0.3), s = e^-1: masses are 0.35*e^-1,
        # 0.15*e^-1 and 1 - 0.5*e^-1
        s = Tensor(np.array([[[np.exp(-1.0)]]]))
        masses = bba(s, np.log([[0.7, 0.3]]), np.zeros(1)).data
        m_sing, m_omega = masses[:, :K], masses[:, IGNORANCE]
        np.testing.assert_allclose(m_sing[0, :, 0, 0], [0.1287578, 0.0551819],
                                   atol=1e-6)
        np.testing.assert_allclose(m_omega[0, 0, 0], 0.8160603, atol=1e-6)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(5)
        s = Tensor(rng.uniform(0, 1, size=(6, 4)).T[None])
        masses = bba(s, rng.standard_normal((4, 2)),
                     rng.standard_normal(4)).data
        m_sing, m_omega = masses[:, :K], masses[:, IGNORANCE]
        total = m_sing.sum(axis=1) + m_omega
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_ignorance_floor(self):
        rng = np.random.default_rng(6)
        alpha_logits = rng.standard_normal(4)
        s = Tensor(rng.uniform(0, 1, size=(6, 4)).T[None])
        m_omega = bba(s, rng.standard_normal((4, 2)),
                      alpha_logits).data[:, IGNORANCE]
        floor = 1.0 - 1.0 / (1.0 + np.exp(-alpha_logits))
        assert np.all(m_omega >= floor[:, None] - 1e-12)

    @pytest.mark.parametrize("logit", [18.0, 100.0])
    def test_saturated_float32_alpha_keeps_ignorance_positive(self, logit):
        # logistic(18) rounds to 1.0 in float32; with s = 1 the ignorance
        # mass was 1 - 1 * 1 = 0, its log -inf and the fusion gradients NaN
        a = np.full(3, logit, np.float32)
        assert np.all(strengths(a) < 1)
        s = Tensor(np.ones((1, 3, 2), np.float32), requires_grad=True)
        v = Tensor(np.log([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]
                          ).astype(np.float32), requires_grad=True)
        alpha_logits = Tensor(a, requires_grad=True)
        masses = bba(s, v, alpha_logits)
        assert masses.dtype == np.float32
        assert np.all(masses.data[:, IGNORANCE] > 0)
        fused = dempster_fuse(masses)
        (fused[:, LESION] + fused[:, IGNORANCE] * fused[:, IGNORANCE]
         ).sum().backward()
        assert np.all(np.isfinite(fused.data))
        for t in (s, v, alpha_logits):
            assert np.all(np.isfinite(t.grad))

    def test_omega_mass_monotone_in_distance(self):
        # larger squared distance -> smaller s -> larger ignorance mass
        d2 = np.linspace(0, 50, 25)
        s = Tensor(np.exp(-0.1 * d2)[None, None])
        m_omega = bba(s, np.zeros((1, 2)),
                      np.array([0.7])).data[:, IGNORANCE]
        assert np.all(np.diff(m_omega[0, 0]) >= 0)


class TestDempsterFuse:
    def test_worked_self_fusion(self):
        m = np.array([[0.35, 0.15, 0.5], [0.35, 0.15, 0.5]])
        fused = fuse_mass_arrays(m[None])
        np.testing.assert_allclose(fused[0], [0.527933, 0.192737, 0.279330],
                                   atol=5e-7)

    def test_vacuous_neutrality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_simple_bba(rng)
            fused = fuse_mass_arrays(np.stack([m, [0.0, 0.0, 1.0]])[None])
            np.testing.assert_allclose(fused[0], m, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        masses = np.stack([random_simple_bba(rng) for _ in range(5)])
        base = fuse_mass_arrays(masses[None])
        for _ in range(10):
            perm = rng.permutation(5)
            np.testing.assert_allclose(fuse_mass_arrays(masses[perm][None]),
                                       base, atol=1e-12)

    def test_matches_powerset_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            count = int(rng.integers(1, 7))
            masses = np.stack([random_simple_bba(rng) for _ in range(count)])
            fused = fuse_mass_arrays(masses[None])[0]
            np.testing.assert_allclose(fused, powerset_fuse(masses),
                                       atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_total_conflict_below_smallest_normal(self, dtype):
        # {a} against {b}, each with ignorance e: the normalizer is
        # 2e - e^2, and one below the dtype's smallest normal number is
        # total conflict, a subnormal one included
        tiny = np.finfo(dtype).tiny

        def fuse(norm):
            e = norm / 2
            planes = np.array([[1 - e, 0.0], [0.0, 1 - e], [e, e]], dtype)
            return dempster_fuse(Tensor(planes.reshape(1, 3, 2, 1))).data

        np.testing.assert_allclose(fuse(1.01 * tiny)[0, :, 0],
                                   [0.5, 0.5, 0.0], atol=1e-6)
        with pytest.raises(ArithmeticError, match="total conflict"):
            fuse(0.99 * tiny)

    def test_saturated_float32_masses(self):
        # I = 20 prototypes with m(Omega) = e from epsneg, the floor `bba`
        # keeps, upward; the rest of each prototype's mass goes to {a} with
        # membership u. Half lesion, half background (u = 1, 0) is in
        # total conflict while e^10 is below the smallest normal number;
        # random memberships are not
        i = 20
        rng = np.random.default_rng(16)
        configs = {"split": np.repeat([1.0, 0.0], i // 2),
                   "mixed": rng.uniform(0.0, 1.0, i)}
        sweep = np.geomspace(np.finfo(np.float32).epsneg, 0.5, 400)
        raised = {name: [] for name in configs}
        for name, u in configs.items():
            for e in sweep:
                planes = np.stack([(1 - e) * u, (1 - e) * (1 - u),
                                   np.full(i, e)]).astype(np.float32)
                planes = planes.reshape(1, 3, i, 1)
                try:
                    want = log_space_fuse(planes)
                except ArithmeticError:
                    with pytest.raises(ArithmeticError, match="conflict"):
                        dempster_fuse(Tensor(planes))
                    raised[name].append(e)
                    continue
                got = dempster_fuse(Tensor(planes)).data
                p64 = planes.astype(np.float64)
                ref = tape_dempster_fuse(Tensor(p64[:, :K].swapaxes(1, 2)),
                                         Tensor(p64[:, K])).data
                assert got.dtype == np.float32
                for other in (ref, want):
                    np.testing.assert_allclose(got, other, rtol=1e-5,
                                               atol=1e-5 * np.abs(ref).max(),
                                               err_msg=f"{name} e={e}")
        assert raised["mixed"] == []
        assert 0 < len(raised["split"]) < len(sweep)
        assert max(raised["split"]) < min(set(sweep) - set(raised["split"]))

    def test_single_mass_identity(self):
        rng = np.random.default_rng(10)
        m = random_simple_bba(rng)
        np.testing.assert_allclose(fuse_mass_arrays(m[None, None]), m[None],
                                   atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                              st.floats(0.0, 0.5, exclude_max=True)),
                    min_size=1, max_size=20))
    @example([(0.26, np.nextafter(0.5, 0.0)), (0.8, np.nextafter(0.5, 0.0))])
    def test_background_leaning_prototypes_keep_betp_at_most_half(self,
                                                                  protos):
        # I simple BBAs (alpha s u, alpha s (1 - u), 1 - alpha s), u < 1/2:
        # every factor m_i({a}) + m_i(Omega) is at most m_i({b}) + m_i(Omega),
        # so fusion keeps m({a}) <= m({b}), and BetP = 1/2 + (m({a}) -
        # m({b}))/2 <= 1/2: soft Dice against any mask is then at most 2/3
        alpha_s, u = np.array(protos).T
        bbas = np.stack([alpha_s * u, alpha_s * (1.0 - u), 1.0 - alpha_s],
                        axis=-1)
        fused = fuse_mass_arrays(bbas[None])
        assert fused[0, LESION] <= fused[0, BACKGROUND]
        assert pignistic_lesion(fused)[0] <= 0.5
        assert decide(fused)[0][0] == 0.0

    def test_tie_whose_masses_sum_over_one_is_background(self):
        # every u the largest double below 1/2: fusion rounds m({a}) and
        # m({b}) to the same value while the masses sum to 1 + 2^-52, which
        # puts m({a}) + m(Omega)/2 one ulp over 1/2
        alpha_s = np.array([0.9915454694976327, 0.5320054580970641,
                            0.0025835635887759834, 0.6014039333823012,
                            0.7558637036604008, 0.18135179414467484])
        u = 0.5 - 2.0 ** -54
        bbas = np.stack([alpha_s * u, alpha_s * (1.0 - u), 1.0 - alpha_s],
                        axis=-1)
        fused = fuse_mass_arrays(bbas[None])[0]
        assert fused[LESION] == fused[BACKGROUND] == 0.49946185625946826
        assert fused.sum() == 1.0 + 2.0 ** -52
        assert fused[LESION] + 0.5 * fused[IGNORANCE] > 0.5
        assert pignistic_lesion(fused) == 0.5
        binary, three_way, _ = decide(fused)
        assert binary == 0.0
        assert three_way == CODE_BACKGROUND


class TestEsForward:
    def test_single_prototype_equals_its_bba(self):
        rng = np.random.default_rng(11)
        es = random_es_params(rng, prototypes=1, feature_dim=2)
        f = rng.standard_normal((1, 2, 2, 2, 2))
        masses = es_forward(Tensor(f), es).data
        voxel = f[0, :, 0, 0, 0]
        d2 = ((voxel - es["es.prototypes"][0]) ** 2).sum()
        expected = single_prototype_bba(
            strengths(es["es.alpha_logits"])[0], es["es.gamma_roots"][0] ** 2,
            memberships(es["es.membership_logits"])[0, 0], d2)
        np.testing.assert_allclose(masses[0, :, 0, 0, 0], expected,
                                   atol=1e-10)

    def test_zero_gamma_voxel_independent_ignorance(self):
        # all gamma 0: s == 1 everywhere, fused masses identical per voxel
        rng = np.random.default_rng(12)
        i = 4
        es = {"es.prototypes": rng.standard_normal((i, 2)),
              "es.membership_logits": rng.standard_normal((i, 2)),
              "es.alpha_logits": np.zeros(i), "es.gamma_roots": np.zeros(i)}
        masses = es_forward(Tensor(rng.standard_normal((1, 2, 2, 2, 2))),
                            es).data
        omega = masses[0, IGNORANCE]
        np.testing.assert_allclose(omega, omega.flat[0], atol=1e-12)
        # closed form: mu(frame) = prod(1 - alpha_i) before normalization
        alphas = strengths(es["es.alpha_logits"])
        expected = np.prod(1.0 - alphas)
        singles = np.prod(alphas[:, None]
                          * memberships(es["es.membership_logits"])
                          + (1 - alphas)[:, None], axis=0) - expected
        norm = singles.sum() + expected
        np.testing.assert_allclose(omega.flat[0], expected / norm,
                                   atol=1e-12)

    def test_matches_powerset_oracle_per_voxel(self):
        rng = np.random.default_rng(13)
        es = random_es_params(rng, prototypes=4, feature_dim=3)
        f = rng.standard_normal((1, 3, 2, 2, 2))
        masses = es_forward(Tensor(f), es).data
        voxel = f[0, :, 1, 0, 1]
        d2 = ((voxel - es["es.prototypes"]) ** 2).sum(axis=1)
        alphas = strengths(es["es.alpha_logits"])
        gammas = es["es.gamma_roots"] ** 2
        u = memberships(es["es.membership_logits"])
        per_proto = [single_prototype_bba(alphas[i], gammas[i], u[i, 0], d2[i])
                     for i in range(4)]
        np.testing.assert_allclose(masses[0, :, 1, 0, 1],
                                   powerset_fuse(per_proto), atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_mass_validity(self, seed):
        rng = np.random.default_rng(seed)
        es = random_es_params(rng, prototypes=int(rng.integers(1, 8)))
        f = rng.uniform(-3, 3, size=(1, 3, 2, 2, 2))
        masses = es_forward(Tensor(f), es).data
        assert np.all(masses >= 0)
        np.testing.assert_allclose(masses.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(masses[:, IGNORANCE] > 0)


class TestFusedStages:
    """The fused stages against the elementwise tape head (helpers.tape_*),
    whose every derivative comes from the generic op backwards."""

    @staticmethod
    def _leaves(seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        es = random_es_params(rng, prototypes=20, feature_dim=4)
        f = 0.5 * rng.standard_normal((2, 4, 8, 8, 8))
        weights = rng.standard_normal((2, 3, 8, 8, 8))
        return (f.astype(dtype),
                {k: v.astype(dtype) for k, v in es.items()},
                weights.astype(dtype))

    def _masses_and_grads(self, head, seed, dtype):
        f, params, weights = self._leaves(seed, dtype)
        ft = Tensor(f, requires_grad=True)
        lv = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        masses = head(ft, lv)
        (masses * weights).sum().backward()
        return masses.data, {"features": ft.grad,
                             **{k: t.grad for k, t in lv.items()}}

    # float32: the two paths sum in different orders, so they agree to
    # about 80 ulp of the largest element, not bit for bit
    @pytest.mark.parametrize("seed,dtype,tol", [(0, np.float64, 1e-10),
                                                (1, np.float64, 1e-10),
                                                (0, np.float32, 1e-5)])
    def test_matches_tape_head(self, seed, dtype, tol):
        masses, grads = self._masses_and_grads(es_forward, seed, dtype)
        ref_masses, ref_grads = self._masses_and_grads(tape_es_forward, seed,
                                                       dtype)
        assert set(grads) == set(ref_grads) and len(grads) == 5
        # relative to each array's largest element: single elements of the
        # feature gradient are differences of nearly equal terms
        pairs = [("masses", masses, ref_masses),
                 *((k, grads[k], ref) for k, ref in ref_grads.items())]
        for name, got, ref in pairs:
            assert got.dtype == ref.dtype == dtype
            np.testing.assert_allclose(got, ref, rtol=tol,
                                       atol=tol * np.abs(ref).max(),
                                       err_msg=name)

    def test_each_stage_is_one_node_on_its_inputs(self):
        f, params, _ = self._leaves(2)
        flat = Tensor(f.reshape(2, 4, -1), requires_grad=True)
        lv = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        s = distance_activation(flat, lv["es.prototypes"],
                                lv["es.gamma_roots"])
        masses = bba(s, lv["es.membership_logits"], lv["es.alpha_logits"])
        fused = dempster_fuse(masses)
        for out, inputs in (
                (s, (flat, lv["es.prototypes"], lv["es.gamma_roots"])),
                (masses, (s, lv["es.membership_logits"],
                          lv["es.alpha_logits"])),
                (fused, (masses,))):
            assert len(out._prev) == len(inputs)
            assert all(a is b for a, b in zip(out._prev, inputs))
        n, _, v = flat.shape
        assert (s.shape, masses.shape, fused.shape) == (
            (n, 20, v), (n, 3, 20, v), (n, 3, v))
        # voxel-minor planes: reductions over prototypes add contiguous
        # V-vectors
        for out in (s, masses, fused):
            assert out.data.flags.c_contiguous


class TestDecide:
    def test_dominant_lesion(self):
        binary, three_way, unc = decide(np.array([0.9, 0.05, 0.05]))
        assert binary == 1.0
        assert three_way == CODE_LESION
        assert unc == pytest.approx(0.05)

    def test_dominant_background(self):
        binary, three_way, _ = decide(np.array([0.05, 0.9, 0.05]))
        assert binary == 0.0
        assert three_way == CODE_BACKGROUND

    def test_pignistic_tie_goes_to_background(self):
        # pignistic exactly 0.5: strict > rule keeps the voxel background,
        # while the three-way map flags ignorance
        binary, three_way, unc = decide(np.array([0.2, 0.2, 0.6]))
        assert binary == 0.0
        assert three_way == CODE_IGNORANCE
        assert unc == pytest.approx(0.6)

    def test_three_way_ties(self):
        # a lesion/background tie is background, as in the binary map; a
        # singleton tied with ignorance keeps the singleton
        masses = np.array([[0.4, 0.4, 0.2], [0.4, 0.2, 0.4], [0.2, 0.4, 0.4],
                           [1 / 3, 1 / 3, 1 / 3]])
        binary, three_way, _ = decide(masses)
        np.testing.assert_array_equal(binary, [0.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            three_way, [CODE_BACKGROUND, CODE_LESION, CODE_BACKGROUND,
                        CODE_BACKGROUND])

    def test_pignistic_values(self):
        masses = np.array([[0.4, 0.4, 0.2], [0.1, 0.3, 0.6]])
        np.testing.assert_allclose(pignistic_lesion(masses), [0.5, 0.4])

    def test_codes_cover_all_outcomes(self):
        masses = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                           [0.1, 0.1, 0.8]])
        _, three_way, _ = decide(masses)
        np.testing.assert_array_equal(
            three_way, [CODE_LESION, CODE_BACKGROUND, CODE_IGNORANCE])

    def test_mass_order_constants(self):
        assert (LESION, BACKGROUND, IGNORANCE) == (0, 1, 2)
