"""Forward pass, losses, and hand-derived gradients for the intention network.

Per timestep the network embeds the (status, action) cluster indices, passes
them through a variational bottleneck (z = mu + exp(sigma) * noise), feeds z
beside the raw features and the status/action prototype vectors into three
LSTMs, converts their hidden states into a non-negative hazard via softplus,
and maintains the survival curve S(t) = exp(-cumulative hazard).  An
attention head over the feature context mixes the two tree-backbone
probabilities with the survival-based prediction; the mixed prediction is
then blended with the previous step's output in proportion to S(t), so a
dead survival curve freezes the prediction.

The training objective sums, over steps weighted by sqrt(t): cross-entropy
on the mixed prediction, the Gaussian-bottleneck regularizer
sum(exp(sigma) - (1 + sigma) + mu^2) plus a reconstruction error, a hinge
surrogate that penalizes prediction sign flips between consecutive steps,
and an earliness term +-S(t) pushing survival down for positives and up for
negatives.  Gradients are computed analytically in reverse; they are checked
against central finite differences in the test suite.

Precision: every array the network makes takes the dtype of the batch's
``features``, and the parameters are cast to that dtype once per call, so a
float32 batch computes in float32 throughout and a float64 batch in float64.
The pipeline's batches are float32; the optimizer keeps float64 master
parameters (see ``train``), and the gradient checks and the per-step oracle
run the same code on float64 batches.

Only the LSTM cell recurrence runs step by step, with the three branches
stacked as one (3, B, d_h) state so each step is one batched ``h @ U``.
Everything else (embeddings, bottleneck, input projections, hazard and
attention heads, losses, and every weight gradient) runs once over
time-major (T, B, ...) arrays.  Matmuls over those arrays run as one B-row
GEMM per step inside numpy rather than one (T * B)-row GEMM: at these sizes
a GEMM that large wakes extra BLAS threads that cost CPU time but save no
wall time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import sigmoid
from ..errors import DataError
from .params import BRANCHES, Dims, IntentionConfig

PROB_CLIP = 1e-12


def _softplus(x):
    return np.logaddexp(0.0, x)


def intention_index_of(z: np.ndarray) -> np.ndarray:
    """Sign pattern of z mapped to a 1-based index.

    Dimension d contributes 2^d when negative; zeros count as positive, so
    the all-positive pattern is index 1 and the all-negative pattern is
    index 2^d_z.
    """
    z = np.asarray(z)
    bits = (z < 0).astype(np.int64)
    weights = 2 ** np.arange(z.shape[-1], dtype=np.int64)
    return 1 + bits @ weights


@dataclass(slots=True)
class SequenceBatch:
    """Per-address aligned sequences over the observation window.

    Backbone probabilities are clipped away from {0, 1} on construction so
    the fused prediction stays strictly inside (0, 1); the upper bound is
    at least one ulp below 1 in the batch's dtype.
    """

    features: np.ndarray      # (B, T, d_f)
    status_vec: np.ndarray    # (B, T, d_f)
    action_vec: np.ndarray    # (B, T, d_f)
    status_idx: np.ndarray    # (B, T) int
    action_idx: np.ndarray    # (B, T) int
    p_status: np.ndarray      # (B, T) backbone prob of class 1
    p_action: np.ndarray      # (B, T)
    labels: np.ndarray        # (B,) int
    addresses: tuple[str, ...] = ()

    def __post_init__(self):
        B, T, _ = self.features.shape
        for name in ("status_vec", "action_vec"):
            if getattr(self, name).shape != self.features.shape:
                raise DataError(f"{name} shape mismatch")
        for name in ("status_idx", "action_idx", "p_status", "p_action"):
            if getattr(self, name).shape != (B, T):
                raise DataError(f"{name} shape mismatch")
        if self.labels.shape != (B,):
            raise DataError("labels shape mismatch")
        hi = 1.0 - max(PROB_CLIP, float(np.finfo(self.p_status.dtype).epsneg))
        self.p_status = np.clip(self.p_status, PROB_CLIP, hi)
        self.p_action = np.clip(self.p_action, PROB_CLIP, hi)

    @property
    def n_addresses(self) -> int:
        return self.features.shape[0]

    @property
    def n_steps(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "SequenceBatch":
        idx = np.asarray(idx)
        return SequenceBatch(
            self.features[idx], self.status_vec[idx], self.action_vec[idx],
            self.status_idx[idx], self.action_idx[idx],
            self.p_status[idx], self.p_action[idx], self.labels[idx],
            tuple(self.addresses[i] for i in idx) if self.addresses else (),
        )


def _linear(x, W, b=None):
    """x @ W.T (+ b) over the last axis of a (T, B, n) array."""
    out = x @ np.ascontiguousarray(W.T)
    return out if b is None else out + b


def _linear_rowwise(x, W, b=None):
    """``_linear`` for maps with a handful of outputs (the bottleneck heads
    and the attention score).  BLAS computes such narrow products on groups
    of rows, so a row's value would depend on how many rows share the call;
    einsum sums each row on its own.  Inference runs in chunks of addresses
    (``explain`` in chunks of one), and a row must not depend on its chunk."""
    out = np.einsum("...i,oi->...o", x, W)
    return out if b is None else out + b


def _outer_sum(g, x):
    """Sum over the leading (step) axis of g[t].T @ x[t]: the weight gradient
    of a linear map applied at every step."""
    return np.matmul(g.swapaxes(-1, -2), x).sum(axis=0)


def _lstm_forward(xw, U):
    """Stacked LSTM recurrence over all steps.

    ``xw`` (T, K, B, 4 d_h) holds every step's input projection plus bias for
    K branches and ``U`` (K, 4 d_h, d_h) their recurrent weights; gates are
    ordered i, f, o, g.  ``h`` and ``c`` carry a leading zero state, so step
    t reads index t and writes index t + 1.
    """
    T, K, B, four_h = xw.shape
    d_h = four_h // 4
    UT = np.ascontiguousarray(U.swapaxes(1, 2))
    gates = np.empty_like(xw)
    h = np.zeros((T + 1, K, B, d_h), xw.dtype)
    c = np.zeros((T + 1, K, B, d_h), xw.dtype)
    tc = np.empty((T, K, B, d_h), xw.dtype)
    for t in range(T):
        pre = xw[t] + h[t] @ UT
        act = gates[t]
        act[..., :3 * d_h] = sigmoid(pre[..., :3 * d_h])
        np.tanh(pre[..., 3 * d_h:], out=act[..., 3 * d_h:])
        c[t + 1] = act[..., d_h:2 * d_h] * c[t] + act[..., :d_h] * act[..., 3 * d_h:]
        np.tanh(c[t + 1], out=tc[t])
        np.multiply(act[..., 2 * d_h:3 * d_h], tc[t], out=h[t + 1])
    return {"gates": gates, "h": h, "c": c, "tc": tc}


def _lstm_backward(lstm, U, gh_in):
    """Gradient (T, K, B, 4 d_h) of the gate pre-activations.

    ``gh_in`` (T, K, B, d_h) is the gradient reaching each hidden state from
    outside the recurrence, so only the carry through ``U`` and the forget
    gate runs step by step.
    """
    gates, c, tc = lstm["gates"], lstm["c"], lstm["tc"]
    T, K, B, d_h = tc.shape
    gates = gates.reshape(T, K, B, 4, d_h)
    gpre = np.empty((T, K, B, 4 * d_h), tc.dtype)
    gh_carry = np.zeros((K, B, d_h), tc.dtype)
    gc_carry = np.zeros((K, B, d_h), tc.dtype)
    for t in range(T - 1, -1, -1):
        i, f, o, g = (gates[t, :, :, k] for k in range(4))
        gh = gh_in[t] + gh_carry
        gc = gh * o * (1.0 - tc[t] * tc[t]) + gc_carry
        gp = gpre[t].reshape(K, B, 4, d_h)
        np.multiply(gc * g, i * (1.0 - i), out=gp[:, :, 0])
        np.multiply(gc * c[t], f * (1.0 - f), out=gp[:, :, 1])
        np.multiply(gh * tc[t], o * (1.0 - o), out=gp[:, :, 2])
        np.multiply(gc * i, 1.0 - g * g, out=gp[:, :, 3])
        gh_carry = gpre[t] @ U
        gc_carry = gc * f
    return gpre


def _cast(params: dict, dtype) -> dict:
    return {k: v.astype(dtype, copy=False) for k, v in params.items()}


def _stack(params, part):
    return np.stack([params[f"lstm_{br}_{part}"] for br in BRANCHES])


@dataclass(slots=True)
class ForwardPass:
    """Per-address outputs in (B, T, ...) order.

    ``cache`` keeps the time-major (T, B, ...) intermediates that the losses
    and the backward pass read.
    """

    y: np.ndarray              # (B, T) fused prediction
    p_hat: np.ndarray          # (B, T) survival-blended prediction
    survival: np.ndarray       # (B, T)
    hazard: np.ndarray         # (B, T)
    alphas: np.ndarray         # (B, T, 3) order (S, A, I)
    z: np.ndarray              # (B, T, d_z)
    intention_idx: np.ndarray  # (B, T)
    cache: dict


def forward_pass(params: dict, batch: SequenceBatch, dims: Dims,
                 noise: np.ndarray | None = None) -> ForwardPass:
    """Run the network over all steps in the batch's dtype; ``noise`` is
    (T, B, d_z) or None for deterministic inference (z = mu)."""
    B, T = batch.n_addresses, batch.n_steps
    dtype = batch.features.dtype
    params = _cast(params, dtype)

    # -- bottleneck --------------------------------------------------------
    sidx, aidx = batch.status_idx.T, batch.action_idx.T
    u = np.concatenate([params["emb_s"][sidx], params["emb_a"][aidx]], axis=2)
    x = np.tanh(_linear(u, params["enc_W"], params["enc_b"]))
    mu = _linear_rowwise(x, params["mu_W"], params["mu_b"])
    sg = _linear_rowwise(x, params["sg_W"], params["sg_b"])
    e = (np.zeros((T, B, dims.d_z), dtype) if noise is None
         else noise.astype(dtype, copy=False))
    z = mu + np.exp(sg) * e
    dh = np.tanh(_linear(z, params["dec_W1"], params["dec_b1"]))
    xh = _linear(dh, params["dec_W2"], params["dec_b2"])
    iidx = intention_index_of(z)
    if dims.use_idx:
        zeff = np.concatenate([z, params["emb_i"][iidx - 1]], axis=2)
    else:
        zeff = z

    # -- LSTMs: branch k reads [zeff, side input k] ---------------------------
    feats = batch.features.swapaxes(0, 1)
    sv = batch.status_vec.swapaxes(0, 1)
    av = batch.action_vec.swapaxes(0, 1)
    inp = np.concatenate(
        [np.broadcast_to(zeff[:, None], (T, 3, B, dims.z_eff)),
         np.stack([feats, sv, av], axis=1)], axis=3)
    xw = (inp @ np.ascontiguousarray(_stack(params, "W").swapaxes(1, 2))
          + _stack(params, "b")[:, None, :])
    lstm = _lstm_forward(xw, _stack(params, "U"))

    # -- hazard and survival ----------------------------------------------------
    haz_pre = (np.einsum("tkbd,kd->tkb", lstm["h"][1:], params["haz_w"])
               + params["haz_b"][:, None])
    lam = _softplus(haz_pre).sum(axis=1)
    S = np.exp(-np.cumsum(lam, axis=0))

    # -- attention fusion ---------------------------------------------------------
    att_in = {"s": np.concatenate([feats, sv], axis=2),
              "a": np.concatenate([feats, av], axis=2),
              "i": np.concatenate([feats, zeff], axis=2)}
    q = {br: np.tanh(_linear(att_in[br], params[f"att_w_{br}"])) for br in att_in}
    scores = np.stack([_linear_rowwise(q[br], params["att_v"][None])[..., 0]
                       for br in ("s", "a", "i")], axis=2)
    expa = np.exp(scores - scores.max(axis=2, keepdims=True))
    alpha = expa / expa.sum(axis=2, keepdims=True)
    y = (alpha[..., 0] * batch.p_status.T + alpha[..., 1] * batch.p_action.T
         + alpha[..., 2] * (1.0 - S))
    p_hat = np.empty((T, B), dtype)
    prev = np.full(B, 0.5, dtype)
    for t in range(T):
        prev = p_hat[t] = S[t] * y[t] + (1.0 - S[t]) * prev

    return ForwardPass(
        y=y.T, p_hat=p_hat.T, survival=S.T, hazard=lam.T,
        alphas=alpha.swapaxes(0, 1), z=z.swapaxes(0, 1), intention_idx=iidx.T,
        cache=dict(u=u, x=x, mu=mu, sg=sg, e=e, z=z, dh=dh, xh=xh, iidx=iidx,
                   sidx=sidx, aidx=aidx, inp=inp, lstm=lstm, haz_pre=haz_pre,
                   att_in=att_in, q=q, alpha=alpha),
    )


def _step_weights(T: int, dtype) -> np.ndarray:
    return np.sqrt(np.arange(1.0, T + 1.0)).astype(dtype)


def loss_terms(batch: SequenceBatch, fw: ForwardPass, config: IntentionConfig):
    """Per-term sqrt(t)-weighted sums over the batch."""
    dtype = batch.features.dtype
    w = _step_weights(batch.n_steps, dtype)
    labels = batch.labels.astype(dtype)
    y, S = fw.y.T, fw.survival.T
    mu, sg = fw.cache["mu"], fw.cache["sg"]
    diff = fw.cache["xh"] - fw.cache["u"]
    v = -(y[1:] - 0.5) * (y[:-1] - 0.5)
    terms = {
        "pred": w @ (-labels * np.log(y) - (1.0 - labels) * np.log(1.0 - y)).sum(axis=1),
        "vae_kl": w @ (np.exp(sg) - (1.0 + sg) + mu * mu).sum(axis=(1, 2)),
        "recon": w @ (diff * diff).sum(axis=(1, 2)),
        "consistency": w[1:] @ np.maximum(v, 0.0).sum(axis=1),
        "consistency_01": w[1:] @ (v > 0.0).sum(axis=1),
        "earliness": w @ np.where(labels == 1, S, -S).sum(axis=1),
    }
    terms = {k: float(val) for k, val in terms.items()}
    terms["total"] = (terms["pred"]
                      + config.gamma_v * (terms["vae_kl"] + config.recon_weight * terms["recon"])
                      + config.gamma_c * terms["consistency"]
                      + config.gamma_e * terms["earliness"])
    return terms


def compute_loss(params: dict, batch: SequenceBatch, dims: Dims,
                 config: IntentionConfig, noise: np.ndarray | None = None):
    fw = forward_pass(params, batch, dims, noise)
    return loss_terms(batch, fw, config), fw


def compute_loss_and_grads(params: dict, batch: SequenceBatch, dims: Dims,
                           config: IntentionConfig,
                           noise: np.ndarray | None = None):
    """Analytic gradients of the total training loss for every parameter,
    in the batch's dtype."""
    dtype = batch.features.dtype
    params = _cast(params, dtype)
    fw = forward_pass(params, batch, dims, noise)
    terms = loss_terms(batch, fw, config)
    c = fw.cache
    T = batch.n_steps
    d_z, d_e, d_f = dims.d_z, dims.d_e, dims.d_f
    labels = batch.labels.astype(dtype)
    w = _step_weights(T, dtype)[:, None]
    y, S, alpha = fw.y.T, fw.survival.T, c["alpha"]
    grads: dict[str, np.ndarray] = {}

    # -- prediction endpoints -----------------------------------------------
    gy = w * (-labels / y + (1.0 - labels) / (1.0 - y))
    active = (-(y[1:] - 0.5) * (y[:-1] - 0.5)) > 0.0
    hinge = w[1:] * config.gamma_c * active
    gy[1:] += hinge * (-(y[:-1] - 0.5))
    gy[:-1] += hinge * (-(y[1:] - 0.5))
    galpha = gy[..., None] * np.stack(
        [batch.p_status.T, batch.p_action.T, 1.0 - S], axis=2)
    gS = -gy * alpha[..., 2] + config.gamma_e * np.where(labels == 1, w, -w)

    # -- survival chain: hazard at step t feeds survival at every s >= t ------
    glam = np.cumsum((gS * -S)[::-1], axis=0)[::-1]
    h = c["lstm"]["h"]
    ghaz = glam[:, None, :] * sigmoid(c["haz_pre"])  # (T, 3, B)
    grads["haz_w"] = np.einsum("tkb,tkbd->kd", ghaz, h[1:])
    grads["haz_b"] = ghaz.sum(axis=(0, 2))
    gh = ghaz[..., None] * params["haz_w"][:, None, :]

    # -- attention ------------------------------------------------------------
    ga = alpha * (galpha - (galpha * alpha).sum(axis=2, keepdims=True))
    grads["att_v"] = np.zeros_like(params["att_v"])
    for k, br in enumerate(("s", "a", "i")):
        q = c["q"][br]
        grads["att_v"] += (q * ga[..., k, None]).sum(axis=(0, 1))
        gqpre = ga[..., k, None] * params["att_v"] * (1.0 - q * q)
        grads[f"att_w_{br}"] = _outer_sum(gqpre, c["att_in"][br])
    gzeff = gqpre @ np.ascontiguousarray(params["att_w_i"][:, d_f:])

    # -- LSTMs ----------------------------------------------------------------
    W = _stack(params, "W")
    gpre = _lstm_backward(c["lstm"], _stack(params, "U"), gh)
    gW = _outer_sum(gpre, c["inp"])
    gU = _outer_sum(gpre, h[:-1])
    gb = gpre.sum(axis=(0, 2))
    for k, br in enumerate(BRANCHES):
        grads[f"lstm_{br}_W"], grads[f"lstm_{br}_U"], grads[f"lstm_{br}_b"] = \
            gW[k], gU[k], gb[k]
    gzeff += (gpre @ np.ascontiguousarray(W[:, :, :dims.z_eff])).sum(axis=1)

    # -- bottleneck -----------------------------------------------------------
    gz = gzeff[..., :d_z]
    if dims.use_idx:
        grads["emb_i"] = np.zeros_like(params["emb_i"])
        np.add.at(grads["emb_i"], c["iidx"] - 1, gzeff[..., d_z:])

    gxh = (w * config.gamma_v * config.recon_weight * 2.0)[..., None] * (c["xh"] - c["u"])
    grads["dec_W2"] = _outer_sum(gxh, c["dh"])
    grads["dec_b2"] = gxh.sum(axis=(0, 1))
    gdec_pre = (gxh @ params["dec_W2"]) * (1.0 - c["dh"] ** 2)
    grads["dec_W1"] = _outer_sum(gdec_pre, c["z"])
    grads["dec_b1"] = gdec_pre.sum(axis=(0, 1))
    gz = gz + gdec_pre @ params["dec_W1"]

    coef_kl = (w * config.gamma_v)[..., None]
    esg = np.exp(c["sg"])
    gmu = coef_kl * 2.0 * c["mu"] + gz
    gsg = coef_kl * (esg - 1.0) + gz * esg * c["e"]
    gx = gmu @ params["mu_W"] + gsg @ params["sg_W"]
    grads["mu_W"] = _outer_sum(gmu, c["x"])
    grads["mu_b"] = gmu.sum(axis=(0, 1))
    grads["sg_W"] = _outer_sum(gsg, c["x"])
    grads["sg_b"] = gsg.sum(axis=(0, 1))

    genc_pre = gx * (1.0 - c["x"] ** 2)
    grads["enc_W"] = _outer_sum(genc_pre, c["u"])
    grads["enc_b"] = genc_pre.sum(axis=(0, 1))
    gu = genc_pre @ params["enc_W"] - gxh
    grads["emb_s"] = np.zeros_like(params["emb_s"])
    grads["emb_a"] = np.zeros_like(params["emb_a"])
    np.add.at(grads["emb_s"], c["sidx"], gu[..., :d_e])
    np.add.at(grads["emb_a"], c["aidx"], gu[..., d_e:])

    return terms, {k: grads[k] for k in params}, fw


def t_die(survival_row: np.ndarray, death_eps: float) -> int | None:
    """First 1-based step where survival drops to the death threshold."""
    below = np.flatnonzero(survival_row <= death_eps)
    return int(below[0]) + 1 if below.size else None


def motif(fw: ForwardPass, row: int, death_eps: float) -> list[int]:
    """Intention index sequence up to t_die (whole window if never reached)."""
    td = t_die(fw.survival[row], death_eps)
    end = td if td is not None else fw.survival.shape[1]
    return [int(v) for v in fw.intention_idx[row, :end]]
