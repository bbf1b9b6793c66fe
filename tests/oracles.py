"""Brute-force reference implementations used as test oracles.

Everything here is written for clarity, not speed: plain nested loops and
scalar arithmetic.  The library kernels are checked against these on random
inputs; the oracles never call into dtsnn, except `replicated_tape_grads`,
which assembles a whole-network forward/backward from the (separately
checked) layer kernels.
"""

import math

import numpy as np


def conv2d_reference(x, w, stride, padding):
    """Direct six-nested-loop 2-d cross-correlation."""
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    assert cin == cin_w
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    y = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for b in range(n):
        for oc in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ic in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[b, ic, i * stride + ki, j * stride + kj]
                                    * w[oc, ic, ki, kj]
                                )
                    y[b, oc, i, j] = acc
    return y


def fully_connected_reference(x, w, b):
    """Double-loop dot products: y[n, o] = sum_i x[n, i] * w[o, i] + b[o]."""
    n, fin = x.shape
    fout = w.shape[0]
    y = np.zeros((n, fout), dtype=np.float64)
    for r in range(n):
        for o in range(fout):
            acc = 0.0
            for i in range(fin):
                acc += float(x[r, i]) * float(w[o, i])
            y[r, o] = acc + float(b[o])
    return y


def avg_pool2d_reference(x, window):
    """Loop over every window and take the arithmetic mean."""
    n, c, h, w = x.shape
    ho, wo = h // window, w // window
    y = np.zeros((n, c, ho, wo), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ki in range(window):
                        for kj in range(window):
                            acc += float(x[b, ch, i * window + ki, j * window + kj])
                    y[b, ch, i, j] = acc / (window * window)
    return y


def lif_sequence_reference(currents, tau, v_th):
    """Scalar step-by-step leaky integrate-and-fire trace.

    currents: 1-d sequence of input currents for one neuron.
    Returns (spikes, potentials_after_reset) lists of the same length.
    """
    u = 0.0
    spikes, potentials = [], []
    for i_t in currents:
        u = tau * u + float(i_t)
        s = 1.0 if u > v_th else 0.0
        u = u * (1.0 - s)
        spikes.append(s)
        potentials.append(u)
    return spikes, potentials


def crossbar_mapping_reference(fan_in, fan_out, weight_bits, device_bits, xbar, per_tile):
    """Ceiling arithmetic for mapping one weight matrix onto crossbars."""
    slices = weight_bits // device_bits
    rows_blocks = math.ceil(fan_in / xbar)
    col_blocks = math.ceil(fan_out * slices / xbar)
    crossbars = rows_blocks * col_blocks
    tiles = math.ceil(crossbars / per_tile)
    return slices, rows_blocks, col_blocks, crossbars, tiles


def energy_reference(row, mapping, arch):
    """One timestep's energy, summed layer by layer from the cost-model formula.

    E = sum_l (e_crossbar_digital + e_crossbar_buffer) * crossbars_l
        + sum_l (e_mac + e_adc / crossbar_size) * columns_l * spikes_l
        + e_step_digital + e_step_buffer
    """
    assert len(row) == len(mapping.layers)
    total = arch.e_step_digital + arch.e_step_buffer
    for layer, spikes in zip(mapping.layers, row):
        total += (arch.e_crossbar_digital + arch.e_crossbar_buffer) * layer.crossbar_count
        total += (
            (arch.e_mac + arch.e_adc / arch.crossbar_size)
            * layer.cols_needed * float(spikes)
        )
    return total


def softmax_reference(z):
    """Scalar softmax of a 1-d list, no stabilization tricks."""
    exps = [math.exp(v) for v in z]
    total = sum(exps)
    return [e / total for e in exps]


def normalized_entropy_reference(pi):
    """Shannon entropy over log K with the 0*log0 = 0 convention."""
    k = len(pi)
    acc = 0.0
    for p in pi:
        if p > 0.0:
            acc -= p * math.log(p)
    return acc / math.log(k)


def cross_entropy_reference(logits_row, label):
    """-log softmax(logits)[label] computed with scalar arithmetic."""
    probs = softmax_reference(list(logits_row))
    return -math.log(probs[label])


def finite_difference_grad(f, param, eps=1e-4):
    """Central finite differences of scalar f() w.r.t. every element of param.

    ``param`` is mutated in place element by element and restored; ``f`` must
    re-run the full forward pass on each call.
    """
    grad = np.zeros_like(param, dtype=np.float64)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def replicated_tape_grads(net, x, t_steps, dstep_logits):
    """Training forward/backward with the input replicated to T*B rows.

    Every layer, the timestep-invariant ones included, runs on the input
    copied once per timestep, train-mode batch norm pools statistics over all
    T*B rows, the LIF recurrence is a plain loop over t, and the backward
    pass computes every layer's input gradient.  Returns
    (step_logits (T,B,K), {layer: {param: grad}}, {layer: proposed norm state}).
    """
    from dtsnn.kernels import (
        avg_pool2d,
        avg_pool2d_backward,
        batch_norm_backward,
        batch_norm_train_cached,
        conv2d,
        conv2d_backward,
        fully_connected,
        fully_connected_backward,
    )

    spec = net.spec
    batch = x.shape[0]
    h = np.concatenate([x] * t_steps, axis=0)
    tape, norm_updates = [], {}
    for i, layer in enumerate(spec.layers):
        par = net.params[i]
        if layer.kind == "conv":
            p = spec.conv_params(layer, h.shape[1])
            tape.append((p, h))
            h = conv2d(h, par["w"], p)
            if "b" in par:
                h = h + par["b"].reshape(1, -1, 1, 1)
        elif layer.kind == "norm":
            h, norm_updates[i], cache = batch_norm_train_cached(h, par)
            tape.append(cache)
        elif layer.kind == "lif":
            cfg = spec.lif_config_for(layer)
            currents = h.reshape((t_steps, batch) + h.shape[1:])
            u = np.zeros_like(currents[0])
            u_pre, spikes = [], []
            for t in range(t_steps):
                u = cfg.tau * u + currents[t]
                s = (u > cfg.v_th).astype(u.dtype)
                u_pre.append(u)
                spikes.append(s)
                u = u * (1.0 - s)
            tape.append((cfg, u_pre, spikes))
            h = np.concatenate(spikes, axis=0)
        elif layer.kind == "pool":
            tape.append(None)
            h = avg_pool2d(h, layer.window)
        else:  # fc / classifier
            tape.append((h.shape, h.reshape(h.shape[0], -1)))
            h = fully_connected(tape[-1][1], par["w"], par["b"])
    step_logits = h.reshape(t_steps, batch, -1)

    g = dstep_logits.reshape(t_steps * batch, -1)
    grads = {}
    for i in reversed(range(len(spec.layers))):
        layer, par, entry = spec.layers[i], net.params[i], tape[i]
        if layer.kind == "conv":
            p, x_in = entry
            grads[i] = {}
            if "b" in par:
                grads[i]["b"] = g.sum(axis=(0, 2, 3))
            g, grads[i]["w"] = conv2d_backward(g, x_in, par["w"], p)
        elif layer.kind == "norm":
            g, dgamma, dbeta = batch_norm_backward(g, entry)
            grads[i] = {"gamma": dgamma, "beta": dbeta}
        elif layer.kind == "lif":
            cfg, u_pre, spikes = entry
            gs = g.reshape((t_steps, batch) + g.shape[1:])
            d_currents = [None] * t_steps
            du_post = np.zeros_like(gs[0])
            for t in reversed(range(t_steps)):
                surrogate = np.maximum(0.0, cfg.v_th - np.abs(u_pre[t] - cfg.v_th))
                du_pre = gs[t] * surrogate + du_post * (1.0 - spikes[t])
                d_currents[t] = du_pre
                du_post = cfg.tau * du_pre
            g = np.concatenate(d_currents, axis=0)
        elif layer.kind == "pool":
            g = avg_pool2d_backward(g, layer.window)
        else:
            shape, flat = entry
            dx, dw, db = fully_connected_backward(g, flat, par["w"])
            grads[i] = {"w": dw, "b": db}
            g = dx.reshape(shape)
    return step_logits, grads, norm_updates
