import numpy as np
import pytest

from chainsentry.errors import DataError
from chainsentry.intention import (Dims, IntentionConfig, IntentionNetwork,
                                   SequenceBatch, compute_loss,
                                   compute_loss_and_grads, flatten_params,
                                   forward_pass, init_params, intention_index_of,
                                   load_params, save_params, unflatten_params)
from chainsentry.intention.network import _lstm_forward, loss_terms, motif, t_die
from oracles import reference_loss_and_grads


def make_batch(rng, B=2, T=4, d_f=3, k_status=3, k_action=3, labels=None):
    feats = rng.uniform(0.0, 1.0, size=(B, T, d_f))
    svec = rng.uniform(0.0, 1.0, size=(B, T, d_f))
    avec = rng.uniform(-0.5, 0.5, size=(B, T, d_f))
    sidx = rng.integers(0, k_status, size=(B, T))
    aidx = rng.integers(0, k_action, size=(B, T))
    ps = rng.uniform(0.2, 0.8, size=(B, T))
    pa = rng.uniform(0.2, 0.8, size=(B, T))
    if labels is None:
        labels = np.arange(B) % 2
    return SequenceBatch(feats, svec, avec, sidx, aidx, ps, pa,
                         np.asarray(labels, dtype=np.int64))


def as_dtype(batch, dtype):
    """The batch with its float arrays in ``dtype``, as the pipeline builds it."""
    return SequenceBatch(*(getattr(batch, name).astype(dtype) for name in (
        "features", "status_vec", "action_vec")), batch.status_idx, batch.action_idx,
        batch.p_status.astype(dtype), batch.p_action.astype(dtype), batch.labels)


def small_config(**kwargs):
    defaults = dict(d_e=3, d_z=2, d_h=4, learning_rate=1e-3, epochs=2,
                    batch_size=2, seed=0)
    defaults.update(kwargs)
    return IntentionConfig(**defaults)


def dims_for(batch, config, k_status=3, k_action=3):
    return Dims.from_config(config, batch.features.shape[2], k_status, k_action)


# -- indexing ------------------------------------------------------------------


def test_intention_index_enumeration():
    assert intention_index_of(np.array([1.0, 1.0, 1.0])) == 1
    assert intention_index_of(np.array([-1.0, 1.0, 1.0])) == 2
    assert intention_index_of(np.array([1.0, -1.0, -1.0])) == 7
    assert intention_index_of(np.array([-1.0, -1.0, -1.0])) == 8
    assert intention_index_of(np.zeros(3)) == 1  # zeros count as positive
    grid = intention_index_of(np.array([[1.0, -1.0], [-1.0, -1.0]]))
    assert grid.tolist() == [3, 4]


# -- embeddings / VAE ----------------------------------------------------------


def test_embedding_lookup_rows(rng):
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=1)
    fw = forward_pass(params, batch, dims)
    want = np.concatenate([params["emb_s"][batch.status_idx[:, 0]],
                           params["emb_a"][batch.action_idx[:, 0]]], axis=1)
    assert np.array_equal(fw.cache["u"][0], want)


def test_out_of_range_index_errors(rng):
    config = small_config()
    batch = make_batch(rng)
    batch.status_idx[0, 0] = 99
    net = IntentionNetwork(config)
    with pytest.raises(DataError):
        net.fit(batch, k_status=3, k_action=3)


def test_reparameterization_identities(rng):
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=2)
    fw0 = forward_pass(params, batch, dims, noise=None)
    for t in range(batch.n_steps):
        assert np.array_equal(fw0.cache["z"][t], fw0.cache["mu"][t])  # e = 0 -> z = mu
    # sigma-head forced to zero output, e = 1: z = mu + 1.
    params2 = {k: v.copy() for k, v in params.items()}
    params2["sg_W"][:] = 0.0
    params2["sg_b"][:] = 0.0
    noise = np.ones((batch.n_steps, batch.n_addresses, dims.d_z))
    fw1 = forward_pass(params2, batch, dims, noise=noise)
    for t in range(batch.n_steps):
        assert np.allclose(fw1.cache["z"][t], fw1.cache["mu"][t] + 1.0)


def test_vae_kl_nonnegative_zero_at_origin(rng):
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=3)
    terms, _ = compute_loss(params, batch, dims, config)
    assert terms["vae_kl"] >= 0.0
    # mu = sg = 0 exactly -> KL contribution 0.
    params["mu_W"][:] = 0; params["mu_b"][:] = 0
    params["sg_W"][:] = 0; params["sg_b"][:] = 0
    terms0, _ = compute_loss(params, batch, dims, config)
    assert terms0["vae_kl"] == 0.0


# -- LSTM ----------------------------------------------------------------------


def _one_step_lstm(params, x):
    """One step of branch "f" from the zero state, in the stacked layout
    (T = 1, one branch): returns the hidden and cell state after the step."""
    xw = x @ params["lstm_f_W"].T + params["lstm_f_b"]
    out = _lstm_forward(xw[None, None], params["lstm_f_U"][None])
    return out["h"][1, 0], out["c"][1, 0]


def test_lstm_zero_weights_zero_output():
    params = {"lstm_f_W": np.zeros((8, 3)), "lstm_f_U": np.zeros((8, 2)),
              "lstm_f_b": np.zeros(8)}
    h, _ = _one_step_lstm(params, np.ones((2, 3)))
    assert np.allclose(h, 0.0)


def test_lstm_single_step_hand_arithmetic():
    d_h = 2
    params = {
        "lstm_f_W": np.full((8, 1), 0.5),
        "lstm_f_U": np.zeros((8, 2)),
        "lstm_f_b": np.concatenate([np.zeros(6), np.array([0.25, 0.25])]),
    }
    x = np.array([[1.0]])
    out_h, out_c = _one_step_lstm(params, x)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(0.5); f = sig(0.5); o = sig(0.5); g = np.tanh(0.75)
    c = i * g
    h = o * np.tanh(c)
    assert np.allclose(out_c, c, atol=1e-12)
    assert np.allclose(out_h, h, atol=1e-12)


# -- hazard / survival -----------------------------------------------------------


def test_hazard_all_zero_weights_value(rng):
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=4)
    for key in params:
        params[key] = np.zeros_like(params[key])
    fw = forward_pass(params, batch, dims)
    assert np.allclose(fw.hazard, 3.0 * np.log(2.0), atol=1e-12)


def test_survival_positive_non_increasing(rng):
    config = small_config()
    batch = make_batch(rng, T=24)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=5)
    fw = forward_pass(params, batch, dims)
    S = fw.survival
    assert (S > 0).all() and (S <= 1).all()
    assert (np.diff(S, axis=1) <= 1e-15).all()


def test_t_die_and_motif(rng):
    survival = np.array([0.9, 0.5, 0.02, 0.005, 0.001])
    assert t_die(survival, 0.01) == 4
    assert t_die(np.ones(5), 0.01) is None

    config = small_config()
    batch = make_batch(rng, T=5)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=6)
    fw = forward_pass(params, batch, dims)
    fw.survival[0] = survival
    m = motif(fw, 0, 0.01)
    assert len(m) == 4
    fw.survival[0] = np.linspace(1.0, 0.9, 5)
    assert len(motif(fw, 0, 0.01)) == 5


# -- attention / fusion -----------------------------------------------------------


def test_alpha_uniform_when_scores_equal(rng):
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=7)
    params["att_v"][:] = 0.0  # all scores collapse to zero
    fw = forward_pass(params, batch, dims)
    assert np.allclose(fw.alphas, 1.0 / 3.0, atol=1e-12)


def test_fusion_endpoints_and_simplex(rng):
    config = small_config()
    B, T = 16, 6
    batch = make_batch(rng, B=B, T=T)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=8)
    fw = forward_pass(params, batch, dims)
    assert np.allclose(fw.alphas.sum(axis=2), 1.0, atol=1e-9)
    assert (fw.alphas >= 0).all()
    assert (fw.p_hat > 0).all() and (fw.p_hat < 1).all()
    # Endpoint: survival ~ 1 keeps the fused value; ~ 0 freezes the previous.
    S = fw.survival
    y = fw.y
    p_hat_prev = np.full(B, 0.5)
    for t in range(T):
        want = S[:, t] * y[:, t] + (1 - S[:, t]) * p_hat_prev
        assert np.allclose(fw.p_hat[:, t], want, atol=1e-12)
        p_hat_prev = fw.p_hat[:, t]


def test_fused_prediction_simplex_many_draws(rng):
    config = small_config()
    batch = make_batch(rng, B=64, T=8)
    dims = dims_for(batch, config)
    for seed in range(3):
        params = init_params(dims, seed=seed)
        noise = rng.standard_normal((8, 64, dims.d_z))
        fw = forward_pass(params, batch, dims, noise)
        assert (fw.y > 0).all() and (fw.y < 1).all()
        assert (fw.p_hat > 0).all() and (fw.p_hat < 1).all()


# -- losses ------------------------------------------------------------------------


def test_consistency_loss_zero_for_constant_predictions(rng):
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=9)
    fw = forward_pass(params, batch, dims)
    for t in range(batch.n_steps):
        fw.y[:, t] = np.full(batch.n_addresses, 0.7)
    terms = loss_terms(batch, fw, config)
    assert terms["consistency"] == 0.0
    assert terms["consistency_01"] == 0.0
    # A sign flip is counted by the 0/1 metric and the surrogate.
    fw.y[:, 1] = np.full(batch.n_addresses, 0.3)
    flipped = loss_terms(batch, fw, config)
    assert flipped["consistency_01"] > 0
    assert flipped["consistency"] > 0


# -- reference oracle ----------------------------------------------------------------


@pytest.mark.parametrize("use_idx", [False, True])
@pytest.mark.parametrize("B", [1, 5, 64])
@pytest.mark.parametrize("T", [1, 4, 24])
@pytest.mark.parametrize("with_noise", [False, True])
def test_network_matches_per_step_reference(use_idx, B, T, with_noise):
    # The batched network sums in another order than the per-step reference,
    # so values agree to rounding, not bit for bit.
    rng = np.random.default_rng(1000 * B + 10 * T + use_idx)
    config = small_config(d_h=8, use_index_embedding=use_idx)
    batch = make_batch(rng, B=B, T=T)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=B + T)
    noise = rng.standard_normal((T, B, dims.d_z)) if with_noise else None
    terms, grads, fw = compute_loss_and_grads(params, batch, dims, config, noise)
    ref_terms, ref_grads, ref = reference_loss_and_grads(params, batch, dims,
                                                         config, noise)
    assert terms.keys() == ref_terms.keys()
    for key in terms:
        np.testing.assert_allclose(terms[key], ref_terms[key], rtol=1e-12, atol=0)
    for name in ("y", "p_hat", "survival", "hazard", "alphas", "z"):
        np.testing.assert_allclose(getattr(fw, name), getattr(ref, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    assert np.array_equal(fw.intention_idx, ref.intention_idx)
    assert list(grads) == list(params)
    for key in params:
        scale = np.abs(ref_grads[key]).max()
        assert np.abs(grads[key] - ref_grads[key]).max() <= 1e-10 * scale, key


def _check_forward_rows(rng, dtype):
    # Inference runs in chunks of addresses; a row's outputs must not depend
    # on which other rows share its chunk.
    config = small_config(d_h=8)
    batch = as_dtype(make_batch(rng, B=9, T=5), dtype)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=12)
    whole = forward_pass(params, batch, dims)
    for rows in ([0, 1, 2], [3], [4, 5, 6, 7, 8]):
        part = forward_pass(params, batch.subset(rows), dims)
        for name in ("p_hat", "survival", "alphas", "intention_idx"):
            np.testing.assert_allclose(getattr(part, name),
                                       getattr(whole, name)[rows],
                                       rtol=1e-12, atol=0, err_msg=name)


def test_forward_rows_do_not_depend_on_the_batch(rng):
    _check_forward_rows(rng, np.float64)


def test_forward_rows_do_not_depend_on_the_batch_in_float32(rng):
    _check_forward_rows(rng, np.float32)


# -- precision ----------------------------------------------------------------------


def test_float32_batch_keeps_backbone_probabilities_below_one(rng):
    # 1 - 1e-12 rounds to 1.0 in float32; a backbone probability of exactly 1
    # would give log(1 - y) = -inf for a benign address.
    batch = make_batch(rng)
    batch.p_status[:] = 1.0
    batch = as_dtype(batch, np.float32)
    assert batch.p_status.dtype == np.float32
    assert (batch.p_status < 1.0).all() and (batch.p_action < 1.0).all()


def _float_arrays(obj, path="cache"):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _float_arrays(value, f"{path}.{key}")
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        yield path, obj


def _default_size_case(rng, B=64, T=24):
    """The default run's network (d_h 32, 3 branches, 4 selected columns,
    16 clusters) on one training-sized minibatch, with float64 noise."""
    config = IntentionConfig()
    batch = make_batch(rng, B=B, T=T, d_f=4, k_status=16, k_action=16)
    dims = dims_for(batch, config, k_status=16, k_action=16)
    noise = rng.standard_normal((T, B, dims.d_z))
    return config, batch, dims, init_params(dims, seed=3), noise


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_network_computes_in_the_batch_dtype(rng, dtype):
    config, batch, dims, params, noise = _default_size_case(rng, B=5, T=6)
    batch = as_dtype(batch, dtype)
    _, grads, fw = compute_loss_and_grads(params, batch, dims, config, noise)
    arrays = [(name, getattr(fw, name)) for name in
              ("y", "p_hat", "survival", "hazard", "alphas", "z")]
    arrays += list(_float_arrays(fw.cache))
    arrays += [(f"grad {k}", v) for k, v in grads.items()]
    assert len(arrays) > 40
    wrong = [(name, a.dtype) for name, a in arrays if a.dtype != dtype]
    assert not wrong
    assert all(v.dtype == np.float64 for v in params.values())


def test_float32_losses_and_gradients_track_float64(rng):
    # Tolerance set from float32's epsilon (1.2e-7) before measuring: 100 eps
    # on the total loss and on each parameter's gradient (relative L2 norm).
    # Measured on this case: 1e-9 and at most 9e-7.
    rtol = 100 * np.finfo(np.float32).eps
    config, batch, dims, params, noise = _default_size_case(rng)
    t64, g64, _ = compute_loss_and_grads(params, batch, dims, config, noise)
    t32, g32, _ = compute_loss_and_grads(params, as_dtype(batch, np.float32), dims,
                                         config, noise)
    assert abs(t32["total"] - t64["total"]) <= rtol * abs(t64["total"])
    for key in params:
        err = np.linalg.norm(g32[key] - g64[key]) / np.linalg.norm(g64[key])
        assert err <= rtol, key


# -- gradient checks -----------------------------------------------------------------


def finite_difference_check(config, batch, dims, seed, rel_tol=1e-4):
    params = init_params(dims, seed=seed)
    noise_rng = np.random.default_rng(seed + 1000)
    noise = noise_rng.standard_normal((batch.n_steps, batch.n_addresses, dims.d_z))
    terms, grads, fw = compute_loss_and_grads(params, batch, dims, config, noise)
    # Keep the hinge and sign boundaries away from the FD step.
    y = fw.y
    prods = np.abs((y[:, 1:] - 0.5) * (y[:, :-1] - 0.5))
    assert prods.min() > 1e-3, "fixture sits on a hinge kink; pick another seed"
    if dims.use_idx:
        assert np.abs(fw.z).min() > 1e-3, "fixture sits on a sign boundary"

    flat = flatten_params(params)
    flat_grads = flatten_params(grads)
    # Central-difference sweet spot for a double-precision loss of this
    # magnitude; 1e-6 leaves cancellation noise above the 1e-4 gate on
    # near-zero gradient components.
    h = 2e-5

    def loss_at(vec):
        p = unflatten_params(params, vec)
        t, _ = compute_loss(p, batch, dims, config, noise)
        return t["total"]

    worst = 0.0
    for k in range(flat.size):
        step = h * max(1.0, abs(flat[k]))
        up = flat.copy(); up[k] += step
        dn = flat.copy(); dn[k] -= step
        fd = (loss_at(up) - loss_at(dn)) / (2 * step)
        a = flat_grads[k]
        denom = max(1e-8, abs(a), abs(fd))
        rel = abs(a - fd) / denom
        worst = max(worst, rel)
        assert rel < rel_tol, f"param {k}: analytic {a} vs fd {fd} (rel {rel})"
    return worst


def test_gradients_match_finite_differences(rng):
    config = small_config()
    batch = make_batch(rng, B=2, T=4)
    dims = dims_for(batch, config)
    worst = finite_difference_check(config, batch, dims, seed=11)
    assert worst < 1e-4


def test_gradients_match_finite_differences_index_variant(rng):
    config = small_config(use_index_embedding=True)
    batch = make_batch(rng, B=2, T=4)
    dims = dims_for(batch, config)
    worst = finite_difference_check(config, batch, dims, seed=24)
    assert worst < 1e-4


def test_embedding_gradient_finite_difference(rng):
    # Spot-check a looked-up embedding row directly.
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=31)
    noise = np.random.default_rng(77).standard_normal(
        (batch.n_steps, batch.n_addresses, dims.d_z))
    _, grads, _ = compute_loss_and_grads(params, batch, dims, config, noise)
    row = int(batch.status_idx[0, 0])
    h = 1e-6
    for col in range(dims.d_e):
        up = {k: v.copy() for k, v in params.items()}
        dn = {k: v.copy() for k, v in params.items()}
        up["emb_s"][row, col] += h
        dn["emb_s"][row, col] -= h
        t_up, _ = compute_loss(up, batch, dims, config, noise)
        t_dn, _ = compute_loss(dn, batch, dims, config, noise)
        fd = (t_up["total"] - t_dn["total"]) / (2 * h)
        a = grads["emb_s"][row, col]
        assert abs(a - fd) / max(1e-8, abs(a), abs(fd)) < 1e-5


# -- training ---------------------------------------------------------------------


def test_zero_epochs_returns_initialization(rng):
    config = small_config(epochs=0)
    batch = make_batch(rng)
    net = IntentionNetwork(config).fit(batch, 3, 3)
    dims = net.dims_
    assert net.epoch_losses_ == []
    want = init_params(dims, config.seed)
    for k, v in net.params_.items():
        assert np.array_equal(v, want[k])


def test_training_loss_decreases_on_separable_set(rng):
    B, T, d_f = 32, 6, 4
    labels = np.arange(B) % 2
    batch = make_batch(rng, B=B, T=T, d_f=d_f, labels=labels)
    # Separable: backbone probabilities already point at the label.
    batch.p_status = np.clip(0.15 + 0.7 * labels[:, None]
                             + 0.02 * rng.normal(size=(B, T)), 0.05, 0.95)
    batch.p_action = np.clip(0.2 + 0.6 * labels[:, None]
                             + 0.02 * rng.normal(size=(B, T)), 0.05, 0.95)
    config = small_config(epochs=6, learning_rate=3e-3, batch_size=16, seed=5)
    net = IntentionNetwork(config).fit(batch, 3, 3)
    losses = net.epoch_losses_
    assert all(b < a for a, b in zip(losses[:5], losses[1:6]))


def _check_training_reproducible(rng, dtype):
    batch = as_dtype(make_batch(rng, B=8, T=4), dtype)
    config = small_config(epochs=3, batch_size=4, seed=9)
    a = IntentionNetwork(config).fit(batch, 3, 3)
    b = IntentionNetwork(config).fit(batch, 3, 3)
    assert a.epoch_losses_ == b.epoch_losses_
    for k in a.params_:
        assert a.params_[k].dtype == np.float64  # master weights
        assert np.array_equal(a.params_[k], b.params_[k])
    assert abs(a.epoch_losses_[-1] - b.epoch_losses_[-1]) < 1e-12


def test_training_bit_reproducible(rng):
    _check_training_reproducible(rng, np.float64)


def test_float32_training_keeps_float64_master_weights(rng):
    _check_training_reproducible(rng, np.float32)


def test_reconstruction_improves_over_steps(rng):
    # Autoencoding fixture: repeated indices, enough steps of Adam.
    batch = make_batch(rng, B=16, T=6)
    config = small_config(epochs=25, learning_rate=5e-3, batch_size=16,
                          gamma_c=0.0, gamma_e=0.0, seed=3)
    dims = dims_for(batch, config)
    from chainsentry.intention.train import train

    params0 = init_params(dims, config.seed)
    t0, _ = compute_loss(params0, batch, dims, config)
    params, _ = train(batch, dims, config)
    t1, _ = compute_loss(params, batch, dims, config)
    assert t1["recon"] < t0["recon"]


# -- persistence --------------------------------------------------------------------


def test_params_binary_roundtrip(tmp_path, rng):
    config = small_config()
    batch = make_batch(rng)
    dims = dims_for(batch, config)
    params = init_params(dims, seed=41)
    path = tmp_path / "model.bin"
    save_params(path, params, dims, config)
    loaded, dims2, config2 = load_params(path)
    assert dims2 == dims
    assert config2 == config
    for k in params:
        assert np.array_equal(loaded[k], params[k])
    fw_a = forward_pass(params, batch, dims)
    fw_b = forward_pass(loaded, batch, dims2)
    assert np.array_equal(fw_a.p_hat, fw_b.p_hat)
