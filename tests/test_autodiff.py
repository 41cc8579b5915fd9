import numpy as np
import pytest

from calsbi import autodiff as ad
from calsbi.autodiff import (Value, ShapeError, concat, dense, gather_rows,
                             repeat_rows, straight_through)
from calsbi.optim import AdamW, clip_grad_norm

from conftest import assert_close_rel, finite_difference


def scalar(v):
    return float(v.data.reshape(-1)[0])


def test_selu_fixed_point_at_zero():
    assert scalar(Value(0.0).selu()) == 0.0


def test_log_exp_inverse_pair():
    assert scalar(Value(1.5).exp().log()) == pytest.approx(1.5, abs=1e-12)


def test_mean_arithmetic():
    assert scalar(Value([1.0, 2.0, 3.0, 6.0]).mean()) == 3.0


def test_square_power_rule():
    x = Value(3.0, requires_grad=True)
    x.square().backward()
    assert x.grad[0] == pytest.approx(6.0)


def test_matmul_identity_sum_gradient():
    a = Value(np.eye(3))
    b = Value(np.arange(9.0).reshape(3, 3), requires_grad=True)
    (a @ b).sum().backward()
    np.testing.assert_array_equal(b.grad, np.ones((3, 3)))


def test_three_layer_selu_network_matches_finite_differences(rng):
    x = Value(rng.standard_normal((3, 4)), requires_grad=True)
    w1 = Value(rng.standard_normal((4, 8)) * 0.5, requires_grad=True)
    w2 = Value(rng.standard_normal((8, 8)) * 0.5, requires_grad=True)
    w3 = Value(rng.standard_normal((8, 1)) * 0.5, requires_grad=True)

    def forward():
        return ((x @ w1).selu() @ w2).selu() @ w3

    out = forward().sum()
    out.backward()
    for p in (x, w1, w2, w3):
        fd = finite_difference(lambda: float(forward().sum().data[0]), p.data)
        assert_close_rel(p.grad, fd)


UNARY_CASES = [
    ("exp", lambda v: v.exp(), lambda r: r.standard_normal((3, 4))),
    ("log", lambda v: v.log(), lambda r: r.uniform(0.2, 3.0, (3, 4))),
    ("square", lambda v: v.square(), lambda r: r.standard_normal((3, 4))),
    ("abs", lambda v: v.abs(), lambda r: np.sign(r.standard_normal((3, 4)))
        * r.uniform(0.1, 2.0, (3, 4))),
    ("tanh", lambda v: v.tanh(), lambda r: r.standard_normal((3, 4))),
    ("selu", lambda v: v.selu(), lambda r: np.sign(r.standard_normal((3, 4)))
        * r.uniform(0.05, 2.0, (3, 4))),
    ("relu", lambda v: v.relu(), lambda r: np.sign(r.standard_normal((3, 4)))
        * r.uniform(0.05, 2.0, (3, 4))),
    ("maxc", lambda v: v.maximum_with(0.5), lambda r: np.where(
        r.random((3, 4)) < 0.5, r.uniform(-1, 0.4, (3, 4)), r.uniform(0.6, 2, (3, 4)))),
    ("mean0", lambda v: v.mean(axis=0, keepdims=True), lambda r: r.standard_normal((3, 4))),
    ("sum1", lambda v: v.sum(axis=1, keepdims=True), lambda r: r.standard_normal((3, 4))),
    ("slice", lambda v: v[:, 1:3], lambda r: r.standard_normal((3, 4))),
    ("reshape", lambda v: v.reshape(4, 3), lambda r: r.standard_normal((3, 4))),
    ("transpose", lambda v: v.transpose(), lambda r: r.standard_normal((3, 4))),
    ("repeat", lambda v: repeat_rows(v, 3), lambda r: r.standard_normal((3, 4))),
    ("gather", lambda v: gather_rows(v, np.array([2, 0, 0, 1])),
        lambda r: r.standard_normal((3, 4))),
]


@pytest.mark.parametrize("name,op,make", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_ops_match_finite_differences_over_many_seeds(name, op, make):
    # property: reverse-mode gradient equals central differences, 100+ seeds
    seeds = range(8) if name in ("slice", "reshape") else range(100)
    for seed in seeds:
        r = np.random.default_rng(seed)
        x = Value(make(r), requires_grad=True)
        w = r.standard_normal(op(x).data.shape)

        def forward():
            return float((op(x) * Value(w)).sum().data[0])

        loss = (op(x) * Value(w)).sum()
        loss.backward()
        fd = finite_difference(forward, x.data)
        assert_close_rel(x.grad, fd)


BINARY_CASES = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / b),
]


@pytest.mark.parametrize("name,op", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
@pytest.mark.parametrize("shape_b", [(3, 4), (1, 4), (3, 1), (1, 1)])
def test_binary_ops_with_broadcasting_match_finite_differences(name, op, shape_b):
    for seed in range(30):
        r = np.random.default_rng(seed)
        a = Value(r.standard_normal((3, 4)), requires_grad=True)
        b = Value(np.sign(r.standard_normal(shape_b)) * r.uniform(0.5, 2.0, shape_b),
                  requires_grad=True)
        w = r.standard_normal((3, 4))

        def forward():
            return float((op(a, b) * Value(w)).sum().data[0])

        (op(a, b) * Value(w)).sum().backward()
        for p in (a, b):
            assert_close_rel(p.grad, finite_difference(forward, p.data))


def test_matmul_matches_finite_differences():
    for seed in range(50):
        r = np.random.default_rng(seed)
        a = Value(r.standard_normal((3, 5)), requires_grad=True)
        b = Value(r.standard_normal((5, 2)), requires_grad=True)
        w = r.standard_normal((3, 2))

        def forward():
            return float(((a @ b) * Value(w)).sum().data[0])

        ((a @ b) * Value(w)).sum().backward()
        assert_close_rel(a.grad, finite_difference(forward, a.data))
        assert_close_rel(b.grad, finite_difference(forward, b.data))


def test_concat_matches_finite_differences(rng):
    a = Value(rng.standard_normal((3, 2)), requires_grad=True)
    b = Value(rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 6))

    def forward():
        return float((concat([a, b], axis=1) * Value(w)).sum().data[0])

    (concat([a, b], axis=1) * Value(w)).sum().backward()
    assert_close_rel(a.grad, finite_difference(forward, a.data))
    assert_close_rel(b.grad, finite_difference(forward, b.data))


def test_backward_twice_accumulates_exactly_double():
    x = Value(np.array([1.0, 2.0]), requires_grad=True)
    loss = x.square().sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)


def test_backward_requires_scalar_root():
    x = Value(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2).backward()


def test_matmul_shape_mismatch_names_operation_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        Value(np.ones((2, 3))) @ Value(np.ones((2, 3)))


def test_elementwise_shape_mismatch_names_operation_and_shapes():
    with pytest.raises(ShapeError, match=r"multiply.*\(2, 3\).*\(4, 5\)"):
        Value(np.ones((2, 3))) * Value(np.ones((4, 5)))
    with pytest.raises(ShapeError, match="add"):
        Value(np.ones((2, 3))) + Value(np.ones((3, 2)))


def test_concat_shape_mismatch_raises():
    with pytest.raises(ShapeError, match="concat"):
        concat([Value(np.ones((2, 3))), Value(np.ones((3, 3)))], axis=1)


# -- fused dense node --------------------------------------------------------------


def _dense_operands(rng, x_grad=True):
    x = Value(rng.standard_normal((5, 4)), requires_grad=x_grad)
    w = Value(rng.standard_normal((4, 3)), requires_grad=True)
    b = Value(rng.standard_normal((1, 3)), requires_grad=True)
    return x, w, b


@pytest.mark.parametrize("selu", [False, True])
@pytest.mark.parametrize("x_grad", [False, True])
def test_dense_matches_unfused_chain(selu, x_grad):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, w, b = _dense_operands(rng, x_grad)
        head = rng.standard_normal((3, 1))
        fused = dense(x, w, b, selu)
        (fused @ Value(head)).sum().backward()
        grads = [p.grad for p in (x, w, b)]
        for p in (x, w, b):
            p.grad = None
        chain = x @ w + b
        if selu:
            chain = chain.selu()
        (chain @ Value(head)).sum().backward()
        np.testing.assert_allclose(fused.data, chain.data, rtol=1e-15, atol=1e-15)
        for got, want in zip(grads, (x.grad, w.grad, b.grad)):
            if want is None:
                assert got is None
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("selu", [False, True])
def test_dense_matches_finite_differences(selu):
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x, w, b = _dense_operands(rng)
        head = Value(rng.standard_normal((3, 1)))

        def forward():
            return float((dense(x, w, b, selu) @ head).sum().data[0])

        (dense(x, w, b, selu) @ head).sum().backward()
        for p in (x, w, b):
            fd = finite_difference(forward, p.data)
            assert_close_rel(p.grad, fd)


def test_dense_output_is_the_only_array_it_keeps(rng):
    x, w, b = _dense_operands(rng)
    out = dense(x, w, b, selu=True)
    kept = [c.cell_contents for c in out._backward.__closure__]
    arrays = [a for a in kept if isinstance(a, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is out.data


def test_dense_shape_mismatch_raises():
    with pytest.raises(ShapeError, match="dense"):
        dense(Value(np.ones((2, 3))), Value(np.ones((4, 5))), Value(np.ones((1, 5))))
    with pytest.raises(ShapeError, match="bias"):
        dense(Value(np.ones((2, 3))), Value(np.ones((3, 5))), Value(np.ones((1, 4))))


# -- constant operands ------------------------------------------------------------


def test_backward_builds_no_gradient_for_constant_operands(rng, monkeypatch):
    x = Value(rng.standard_normal((4, 3)), requires_grad=True)
    consts = [Value(rng.standard_normal((4, 3))), Value(rng.standard_normal((1, 3))),
              Value(rng.uniform(1.0, 2.0, (4, 1))), Value(rng.standard_normal((3, 2)))]
    c_add, c_mul, c_div, c_mat = consts
    accumulated = []
    real_accum = Value._accum

    def spy(self, grad):
        accumulated.append(id(self))
        real_accum(self, grad)

    monkeypatch.setattr(Value, "_accum", spy)
    y = ((c_add - (x + c_add)) * c_mul / c_div) @ c_mat
    concat([y, c_add[:, :1]], axis=1).sum().backward()
    assert not {id(c) for c in consts} & set(accumulated)
    np.testing.assert_allclose(x.grad, np.broadcast_to(
        -(c_mul.data / c_div.data) * c_mat.data.sum(axis=1), (4, 3)), rtol=1e-12)


def test_constant_root_gradient_is_one():
    root = Value(np.array([2.5]))
    root.backward()
    np.testing.assert_array_equal(root.grad, [1.0])


def test_no_grad_suppresses_graph_recording():
    x = Value(np.array([2.0]), requires_grad=True)
    with ad.no_grad():
        y = x.square()
    assert not y.requires_grad
    y2 = x.square()
    assert y2.requires_grad


# -- workspace pool ----------------------------------------------------------------


def pooled_ops(x, w, b, col):
    """One chain through every op a workspace pools; returns all results."""
    h = dense(x, w, b, selu=True)
    z = dense(h, w, b)
    e = (z * 0.5).tanh() + (-z).exp() / (z.square() + 1.0) - col
    s = e.sum(axis=1, keepdims=True)
    c = concat([e, repeat_rows(s, 1), repeat_rows(col[:20], 2)], axis=1)
    return [h, z, e, s, c, c.sum(axis=0, keepdims=True)]


def test_a_held_result_is_never_handed_out_again(rng):
    x = Value(rng.standard_normal((64, 4)))
    with ad.no_grad(), ad.workspace() as pool:
        kept = (x * 2.0).exp()                      # held as a Value
        copies = [kept.data.copy()]
        view = (x + 1.0).data[:, :2]                # only a view of it is held
        copies.append(view.copy())
        name = (x - 1.0).data                       # only a name holds it
        copies.append(name.copy())
        assert len({id(kept.data), id(view.base), id(name)}) == 3
        for _ in range(3):
            out = ((x * 3.0).tanh() + x).exp()
            assert all(out.data is not a and out.data.base is not a
                       for a in (kept.data, view.base, name))
        for held, copy in zip((kept.data, view, name), copies):
            np.testing.assert_array_equal(held, copy)
        # released results are handed out again: the pool stops growing
        size = len(pool[(64, 4)])
        for _ in range(3):
            out = ((x * 3.0).tanh() + x).exp()
        assert len(pool[(64, 4)]) == size


def test_ops_inside_and_outside_a_workspace_give_bit_identical_data(rng):
    x = Value(rng.standard_normal((40, 3)))
    w = Value(rng.standard_normal((3, 3)))
    b = Value(rng.standard_normal((1, 3)))
    col = Value(rng.standard_normal((40, 1)))
    with ad.no_grad():
        plain = [v.data.copy() for v in pooled_ops(x, w, b, col)]
        with ad.workspace() as pool:
            for _ in range(2):                      # the second pass reuses buffers
                pooled = pooled_ops(x, w, b, col)
                for got, want in zip(pooled, plain):
                    np.testing.assert_array_equal(got.data, want)
            with pytest.raises(ShapeError):
                x + Value(np.ones((2, 3)))
    assert pool


def test_grad_inside_a_workspace_pools_nothing_and_keeps_gradients(rng):
    x = Value(rng.standard_normal((40, 3)))
    w = Value(rng.standard_normal((3, 3)), requires_grad=True)
    b = Value(rng.standard_normal((1, 3)), requires_grad=True)
    col = Value(rng.standard_normal((40, 1)), requires_grad=True)
    pooled_ops(x, w, b, col)[-1].sum().backward()
    grads = [v.grad for v in (w, b, col)]
    for v in (w, b, col):
        v.grad = None
    with ad.workspace() as pool:
        pooled_ops(x, w, b, col)[-1].sum().backward()
    assert pool == {}
    for v, g in zip((w, b, col), grads):
        np.testing.assert_array_equal(v.grad, g)


def test_straight_through_forwards_hard_and_backwards_soft(rng):
    soft = Value(rng.standard_normal((3, 1)), requires_grad=True)
    hard = np.array([[0.0], [1.0], [1.0]])
    out = straight_through(hard, soft)
    np.testing.assert_array_equal(out.data, hard)
    (out * Value(np.array([[1.0], [2.0], [3.0]]))).sum().backward()
    np.testing.assert_array_equal(soft.grad, [[1.0], [2.0], [3.0]])


# -- optimizer -------------------------------------------------------------------


def test_adamw_first_step_matches_hand_applied_update():
    p = Value(np.array([0.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    opt.step(np.array([1.0]))
    # bias-corrected m_hat = 1, v_hat = 1 -> update = -lr / (1 + eps)
    expected = -1e-3 / (1.0 + 1e-8)
    assert p.data[0] == pytest.approx(expected, rel=1e-12)


def test_adamw_zero_gradient_leaves_params_unchanged():
    p = Value(np.array([1.5, -2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=1e-3)
    opt.step(np.zeros(2))
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_adamw_decoupled_decay_shrinks_multiplicatively():
    p = Value(np.array([2.0]), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.01, weight_decay=0.5)
    opt.step(np.zeros(1))
    assert p.data[0] == pytest.approx(2.0 * (1.0 - 0.01 * 0.5), rel=1e-15)


def test_adamw_is_deterministic():
    def run():
        p = Value(np.array([0.3, -0.4]), requires_grad=True)
        opt = AdamW({"p": p}, lr=1e-2, weight_decay=0.1)
        for i in range(5):
            opt.step(np.array([0.1 * i, -0.2]))
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_adamw_rejects_non_finite_gradient_naming_parameter():
    p = Value(np.array([0.0]), requires_grad=True)
    opt = AdamW({"weights.w0": p})
    with pytest.raises(FloatingPointError, match="weights.w0"):
        opt.step(np.array([np.nan]))


def test_adamw_step_counter_increases_by_one():
    p = Value(np.array([0.0]), requires_grad=True)
    opt = AdamW({"p": p})
    for expected in (1, 2, 3):
        opt.step(np.array([1.0]))
        assert opt.step_count == expected


# -- gradient clipping -------------------------------------------------------------


def test_clip_scales_down_to_max_norm():
    clipped, norm = clip_grad_norm(np.array([10.0]), 5.0)
    assert norm == pytest.approx(10.0)
    assert float(np.sqrt(clipped @ clipped)) == pytest.approx(5.0)


def test_clip_leaves_small_gradients_unchanged():
    grad = np.array([0.6, 0.8])
    clipped, norm = clip_grad_norm(grad, 5.0)
    assert norm == pytest.approx(1.0)
    np.testing.assert_array_equal(clipped, grad)


def test_clip_three_four_five_triangle():
    clipped, norm = clip_grad_norm(np.array([3.0, 4.0]), 1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(clipped, [0.6, 0.8], rtol=1e-15)


def test_clip_noop_on_empty():
    clipped, norm = clip_grad_norm(np.zeros(0), 1.0)
    assert clipped.size == 0 and norm == 0.0


# -- one flat parameter vector -----------------------------------------------------


def _named_params(rng):
    return {"a.w0": Value(rng.standard_normal((3, 2)), requires_grad=True),
            "a.b0": Value(np.zeros((1, 2)), requires_grad=True),
            "b.w0": Value(rng.standard_normal((2, 1)), requires_grad=True)}


def test_adamw_parameters_are_views_of_its_vector(rng):
    params = _named_params(rng)
    before = {k: p.data.copy() for k, p in params.items()}
    opt = AdamW(params)
    assert (opt.data.shape == opt.grad.shape == opt.m.shape == opt.v.shape
            == (6 + 2 + 2,))
    for k, p in params.items():
        assert p.data.base is opt.data and p.grad.base is opt.grad
        np.testing.assert_array_equal(p.data, before[k])
    # a checkpoint load writes through `data[...]` and lands in the vector
    params["b.w0"].data[...] = [[7.0], [8.0]]
    np.testing.assert_array_equal(opt.data[-2:], [7.0, 8.0])
    p = params["a.b0"]
    p.grad[...] = 1.0
    opt.step(opt.grad)
    assert p.data.base is opt.data and np.all(p.data < 0.0)


def test_adamw_gradients_are_one_vector_with_zeros_where_unset(rng):
    params = _named_params(rng)
    opt = AdamW(params)
    opt.grad[...] = 7.0
    opt.zero_grad()
    x = rng.standard_normal((4, 3))
    w1, w2 = params["a.w0"], params["b.w0"]
    # the pass reaches a.w0 and b.w0, not a.b0
    loss = ((Value(x) @ w1) @ w2).sum()
    loss.backward()
    ones = np.ones((4, 1))
    np.testing.assert_allclose(opt.grad[:6], (x.T @ (ones @ w2.data.T)).ravel(),
                               rtol=1e-12)
    np.testing.assert_array_equal(opt.grad[6:8], [0.0, 0.0])
    np.testing.assert_allclose(opt.grad[8:], (x @ w1.data).T @ ones[:, 0],
                               rtol=1e-12)
    for p in params.values():
        assert p.grad.base is opt.grad
    first = opt.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(opt.grad, 2.0 * first)


def test_adamw_rejects_non_finite_gradient_naming_the_parameter_at_its_offset(rng):
    params = _named_params(rng)
    opt = AdamW(params)
    before = opt.data.copy()
    for index, name in ((0, "a.w0"), (5, "a.w0"), (6, "a.b0"), (7, "a.b0"),
                        (9, "b.w0")):
        grad = np.zeros(10)
        grad[index] = np.inf
        with pytest.raises(FloatingPointError, match=f"parameter '{name}'"):
            opt.step(grad)
    np.testing.assert_array_equal(opt.data, before)
    assert opt.step_count == 0


def test_flat_adamw_equals_a_per_array_reference_bit_for_bit(rng):
    lr, (b1, b2), eps, wd = 3e-3, (0.8, 0.99), 1e-8, 0.05
    params = _named_params(rng)
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    opt = AdamW(params, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
    for t in range(1, 6):
        grads = {k: rng.standard_normal(a.shape) for k, a in ref.items()}
        grads["a.b0"] = None if t == 2 else grads["a.b0"]
        opt.zero_grad()
        for k, p in params.items():
            if grads[k] is not None:
                p.grad[...] = grads[k]
        opt.step(opt.grad)
        # the update as it runs one array at a time
        for k, data in ref.items():
            g = grads[k] if grads[k] is not None else np.zeros_like(data)
            data -= lr * wd * data
            m[k] *= b1
            m[k] += (1.0 - b1) * g
            v[k] *= b2
            v[k] += (1.0 - b2) * g * g
            data -= lr * (m[k] / (1.0 - b1 ** t)) / (np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, ref[k])
