"""Leaky integrate-and-fire basics: charge, leak, fire, hard reset.

Walks one neuron through a current sequence and prints the membrane
trajectory, then shows the geometric decay of a silent neuron and the
surrogate gradient used in place of the firing function's derivative.

Run: python3 demos/01_lif_dynamics.py
"""

import numpy as np

from dtsnn import LifConfig, LifState, lif_unroll, surrogate_grad

cfg = LifConfig(tau=0.5, v_th=1.0)
state = LifState(u=np.zeros(1))

print(f"LIF neuron with tau={cfg.tau}, v_th={cfg.v_th}")
print(f"{'t':>3} {'input':>7} {'u after step':>13} {'spike':>6}")
currents = [0.4, 0.4, 0.6, 0.0, 0.0, 1.3, 0.2, 0.9]
for t, current in enumerate(currents, start=1):
    spikes, _ = lif_unroll(np.array([[current]]), cfg, state=state)  # one (T=1, 1) step
    spike = spikes[0]
    print(f"{t:>3} {current:>7.2f} {state.u[0]:>13.4f} {int(spike[0]):>6}")
print("note the hard reset to u=0 right after each spike\n")

print("silent neuron decays geometrically by tau each step:")
state = LifState(u=np.array([0.8]))
for t in range(1, 5):
    lif_unroll(np.zeros((1, 1)), cfg, state=state)
    print(f"  t={t}: u = {state.u[0]:.4f}  (0.8 * {cfg.tau}^{t} = {0.8 * cfg.tau**t:.4f})")

print("\ntriangular surrogate derivative around the threshold:")
for u in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
    print(f"  u={u:.1f}: d(spike)/du ~= {surrogate_grad(np.array(u), cfg.v_th):.2f}")
