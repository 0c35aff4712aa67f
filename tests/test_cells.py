import math
import re

import numpy as np
import pytest

from histlstm.cells import (
    LSTM_FIELDS,
    HeadParams,
    LstmParams,
    LstmState,
    head_predict,
    init_head,
    init_lstm_params,
    lstm_step,
    matvec,
    peep_apply,
)
from histlstm.numerics import ShapeError, sigmoid


def scalar_lstm(w: float, peep: float, forget_bias: float = 0.0) -> LstmParams:
    m = np.full((1, 1), w)
    return LstmParams(
        U_i=m.copy(), U_f=m.copy(), U_c=m.copy(), U_o=m.copy(),
        W_i=m.copy(), W_f=m.copy(), W_c=m.copy(), W_o=m.copy(),
        P_i=np.full(1, peep), P_f=np.full(1, peep), P_o=np.full(1, peep),
        b_i=np.zeros(1), b_f=np.full(1, forget_bias), b_c=np.zeros(1),
        b_o=np.zeros(1),
    )


class TestHeadPredict:
    def test_all_zero_uniform(self):
        head = HeadParams(V=np.zeros((3, 4)), c=np.zeros(3))
        assert np.allclose(head_predict(head, np.ones(4)), 1.0 / 3.0, atol=1e-15)

    def test_bias_only_closed_form(self):
        head = HeadParams(V=np.zeros((2, 1)), c=np.array([math.log(2.0), 0.0]))
        assert np.allclose(head_predict(head, np.zeros(1)),
                           [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_identity_strong_logit(self):
        head = HeadParams(V=np.eye(2), c=np.zeros(2))
        p = head_predict(head, np.array([5.0, 0.0]))
        assert p[0] > 0.99 and abs(p.sum() - 1.0) < 1e-12

    def test_one_state_matches_vector_formula_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            C, U = int(rng.integers(2, 6)), int(rng.integers(1, 33))
            head = init_head(rng, U, C)
            head.c[:] = rng.standard_normal(C)
            h = rng.standard_normal(U)
            z = head.V @ h + head.c
            e = np.exp(z - np.max(z))
            assert np.array_equal(head_predict(head, h), e / np.sum(e))

    def test_stack_matches_row_formula_bitwise_and_each_state(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            C, U = int(rng.integers(2, 6)), int(rng.integers(1, 33))
            T = int(rng.integers(1, 40))
            head = init_head(rng, U, C)
            head.c[:] = rng.standard_normal(C)
            H = rng.standard_normal((T, U))
            Z = H @ head.V.T + head.c
            Z = Z - Z.max(axis=1, keepdims=True)
            E = np.exp(Z)
            P = head_predict(head, H)
            assert np.array_equal(P, E / E.sum(axis=1, keepdims=True))
            for h, p in zip(H, P):
                assert np.allclose(p, head_predict(head, h), rtol=0.0, atol=1e-15)
            # a batch of stacks (B, T, U) and of states (B, 1, U): each row
            # has the bits of its own call
            B = int(rng.integers(1, 9))
            batch = rng.standard_normal((B, T, U))
            P = head_predict(head, batch)
            for b in range(B):
                assert np.array_equal(P[b], head_predict(head, batch[b]))
            P = head_predict(head, batch[:, -1:])
            for b in range(B):
                assert np.array_equal(P[b, 0], head_predict(head, batch[b, -1]))

    def test_stacked_head_scores_with_each_parameter_set(self):
        rng = np.random.default_rng(13)
        K, n, C, U = 4, 6, 3, 5
        heads = [init_head(rng, U, C) for _ in range(K)]
        stacked = HeadParams(V=np.stack([h.V for h in heads]), c=rng.standard_normal((K, C)))
        for k, head in enumerate(heads):
            head.c[:] = stacked.c[k]
        S, H = rng.standard_normal((K, U)), rng.standard_normal((K, n, U))
        P_one, P_stack = head_predict(stacked, S), head_predict(stacked, H)
        assert P_one.shape == (K, C) and P_stack.shape == (K, n, C)
        for k, head in enumerate(heads):
            assert np.allclose(P_one[k], head_predict(head, S[k]), rtol=0.0, atol=1e-15)
            assert np.allclose(P_stack[k], head_predict(head, H[k]), rtol=0.0, atol=1e-15)

    def test_non_finite_row_in_stack_is_rejected(self):
        head = init_head(np.random.default_rng(13), 3, 4)
        H = np.ones((5, 3))
        H[2, 1] = np.nan
        with pytest.raises(ValueError, match="softmax input must be finite"):
            head_predict(head, H)


class TestRowBatches:
    """One parameter set applied to a batch of states (B, ..., U) gives each
    row the bits of its own call."""

    def test_matvec_rows_equal_one_product_each(self):
        rng = np.random.default_rng(15)
        for U in (1, 2, 3, 8, 24):
            for B in (1, 2, 32):
                M, V = rng.standard_normal((4 * U, U)), rng.standard_normal((B, U))
                out = matvec(M, V)
                assert out.shape == (B, 4 * U)
                for b in range(B):
                    assert np.array_equal(out[b], matvec(M, V[b]))
                    assert np.array_equal(out[b], M @ V[b])

    @pytest.mark.parametrize("diag", [True, False])
    def test_peep_apply_rows_in_both_modes(self, diag):
        rng = np.random.default_rng(16)
        for U in (1, 2, 3, 24):
            for B in (1, 2, 32):
                # the input/forget pair against (B, 1, U), and one P against (B, U)
                P_if = rng.standard_normal((2, U) if diag else (2, U, U))
                P_o = rng.standard_normal((U,) if diag else (U, U))
                c = rng.standard_normal((B, U))
                both, one = peep_apply(P_if, c[:, None, :], diag), peep_apply(P_o, c, diag)
                assert both.shape == (B, 2, U) and one.shape == (B, U)
                for b in range(B):
                    assert np.array_equal(both[b], peep_apply(P_if, c[b][None, :], diag))
                    assert np.array_equal(one[b], peep_apply(P_o, c[b], diag))
                    assert np.array_equal(one[b], P_o * c[b] if diag else P_o @ c[b])


class TestLstmStep:
    def test_all_zero(self):
        p = scalar_lstm(0.0, 0.0)
        s = lstm_step(p, LstmState.zero(1), np.zeros(1))
        assert s.c[0] == 0.0 and s.h[0] == 0.0

    def test_scalar_hand_oracle(self):
        # Hand evaluation of the gate equations with every weight 0.5.
        p = scalar_lstm(0.5, 0.5)
        s = lstm_step(p, LstmState.zero(1), np.ones(1))
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))  # noqa: E731
        i = sig(0.5)
        f = sig(0.5)
        g = math.tanh(0.5)
        c = f * 0.0 + i * g
        o = sig(0.5 + 0.5 * c)  # output gate peeks at the new cell
        h = o * math.tanh(c)
        assert abs(s.c[0] - c) < 1e-12
        assert abs(s.h[0] - h) < 1e-12
        assert abs(i - 0.6225) < 1e-4 and abs(c - 0.2877) < 1e-4

    def test_output_gate_uses_new_cell_not_old(self):
        # With a huge output peephole, o depends on c_t; if the old cell
        # (zero here) were used instead, h would be o(0)=0.5 times tanh(c).
        p = scalar_lstm(0.0, 0.0)
        p.P_o[0] = 50.0
        p.b_i[0] = 50.0  # i ~= 1 so the candidate passes
        p.b_c[0] = 0.0
        s = lstm_step(p, LstmState.zero(1), np.ones(1))
        assert s.c[0] == pytest.approx(0.0, abs=1e-12)  # tanh(0) candidate
        p.b_c[0] = 5.0  # c_t ~= tanh(5) ~= 1, so P_o * c_t opens the gate
        s = lstm_step(p, LstmState.zero(1), np.ones(1))
        assert s.h[0] > 0.76  # o ~= 1, h ~= tanh(c) ~= 0.9999; old-cell would give ~0.5*tanh(c)

    def test_gate_limits_carry_memory(self):
        rng = np.random.default_rng(0)
        p = init_lstm_params(rng, 3, 4)
        p.b_f[:] = 30.0   # f ~= 1
        p.b_i[:] = -30.0  # i ~= 0
        p.P_f[:] = 0.0
        p.P_i[:] = 0.0
        prev = LstmState(h=np.zeros(4), c=rng.standard_normal(4))
        s = lstm_step(p, prev, rng.standard_normal(3))
        assert np.allclose(s.c, prev.c, atol=1e-7)

    def test_gates_bounded_and_h_inside_unit_box(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = init_lstm_params(rng, 3, 5)
            s = LstmState.zero(5)
            for _ in range(4):
                s = lstm_step(p, s, rng.standard_normal(3) * 3)
                assert np.all(np.abs(s.h) < 1.0)
                assert np.all(np.isfinite(s.c))

    def test_pure_no_input_mutation(self):
        rng = np.random.default_rng(2)
        p = init_lstm_params(rng, 2, 3)
        before = {k: getattr(p, k).copy() for k in
                  ("U_i", "W_f", "P_o", "b_c")}
        s0 = LstmState(h=rng.standard_normal(3), c=rng.standard_normal(3))
        h0, c0 = s0.h.copy(), s0.c.copy()
        lstm_step(p, s0, rng.standard_normal(2))
        for k, v in before.items():
            assert np.array_equal(getattr(p, k), v)
        assert np.array_equal(s0.h, h0) and np.array_equal(s0.c, c0)

    def test_independent_items_no_coupling(self):
        rng = np.random.default_rng(3)
        p = init_lstm_params(rng, 2, 3)
        xs = [rng.standard_normal(2) for _ in range(4)]
        states = [LstmState(h=rng.standard_normal(3), c=rng.standard_normal(3))
                  for _ in range(4)]
        batch = [lstm_step(p, s, x) for s, x in zip(states, xs)]
        for s, x, out in zip(states, xs, batch):
            again = lstm_step(p, s, x)
            assert np.array_equal(again.h, out.h)
            assert np.array_equal(again.c, out.c)

    def test_shape_errors(self):
        rng = np.random.default_rng(4)
        p = init_lstm_params(rng, 2, 3)
        with pytest.raises(ShapeError):
            lstm_step(p, LstmState.zero(3), np.zeros(5))
        with pytest.raises(ShapeError):
            lstm_step(p, LstmState.zero(4), np.zeros(2))
        with pytest.raises(ShapeError, match=r"^state shapes disagree: h=\(3,\) c=\(2,\)$"):
            LstmState(h=np.zeros(3), c=np.zeros(2))


class TestInit:
    def test_forget_bias_and_bounds(self):
        rng = np.random.default_rng(5)
        p = init_lstm_params(rng, 4, 6)
        assert np.array_equal(p.b_f, np.ones(6))
        assert np.array_equal(p.b_i, np.zeros(6))
        assert np.array_equal(p.b_o, np.zeros(6))
        assert np.all(np.abs(p.U_i) <= 1.0 / math.sqrt(4))
        assert np.all(np.abs(p.W_c) <= 1.0 / math.sqrt(6))
        assert p.peephole == "diag" and p.P_i.shape == (6,)

    def test_full_peephole_mode(self):
        rng = np.random.default_rng(6)
        p = init_lstm_params(rng, 3, 4, peephole="full")
        assert p.peephole == "full" and p.P_o.shape == (4, 4)
        s = lstm_step(p, LstmState.zero(4), np.zeros(3))
        assert s.h.shape == (4,)

    def test_deterministic_given_seed(self):
        a = init_lstm_params(np.random.default_rng(7), 3, 4)
        b = init_lstm_params(np.random.default_rng(7), 3, 4)
        assert np.array_equal(a.U_o, b.U_o) and np.array_equal(a.P_f, b.P_f)

    def test_head_init(self):
        head = init_head(np.random.default_rng(8), 5, 3)
        assert head.n_classes == 3
        assert np.array_equal(head.c, np.zeros(3))
        assert np.all(np.abs(head.V) <= 1.0 / math.sqrt(5))

    def test_param_validation(self):
        rng = np.random.default_rng(9)
        p = init_lstm_params(rng, 2, 3)
        blocks = {k: getattr(p, k) for k in LSTM_FIELDS}
        with pytest.raises(ShapeError, match=r"^b_f has shape \(4,\), expected \(3,\)$"):
            LstmParams(**{**blocks, "b_f": np.zeros(4)})
        with pytest.raises(ShapeError, match=r"^P_o has shape \(3, 3\), expected \(3,\)$"):
            LstmParams(**{**blocks, "P_o": np.zeros((3, 3))})
        with pytest.raises(ShapeError, match=r"^peephole shape \(2,\) is neither diag \(3,\) "
                                             r"nor full \(3, 3\)$"):
            LstmParams(**{**blocks, "P_i": np.zeros(2)})
        for U_i in (np.zeros(3), np.zeros((3, 2, 1)), np.float64(0.0)):
            with pytest.raises(ShapeError, match=rf"^U_i has shape {re.escape(str(U_i.shape))}, "
                                                 r"expected \(units, input_dim\)$"):
                LstmParams(**{**blocks, "U_i": U_i})
        with pytest.raises(ValueError, match="^unknown peephole mode 'none'$"):
            init_lstm_params(rng, 2, 3, peephole="none")
        with pytest.raises(ShapeError, match=r"^head shapes disagree: V=\(3, 2\) c=\(4,\)$"):
            HeadParams(V=np.zeros((3, 2)), c=np.zeros(4))
        with pytest.raises(ShapeError, match=r"^head shapes disagree: V=\(3,\) c=\(3,\)$"):
            HeadParams(V=np.zeros(3), c=np.zeros(3))

    def test_sigmoid_consistency_with_gate_math(self):
        # The scalar oracle above uses math.exp; the vector path must agree.
        z = np.array([0.5])
        assert abs(sigmoid(z)[0] - 1.0 / (1.0 + math.exp(-0.5))) < 1e-15
