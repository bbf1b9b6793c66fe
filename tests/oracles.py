"""Brute-force reference implementations used as test oracles.

Everything here is written for clarity, not speed: plain nested loops and
scalar arithmetic.  The library kernels are checked against these on random
inputs; the oracles never call into dtsnn.
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
