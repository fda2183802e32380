"""Finite-difference solver and thermodynamic verification harness for the
coupled temperature / phase-field system

    theta_t + theta phi_t - kappa lap theta = |phi_t|^2
    phi_t - lap phi + F'(phi) = theta

with zero-flux boundaries, its eps theta^p regularization, and the structural
laws it obeys: energy balance, entropy production, temperature and phase
floors, and the relative-energy stability estimate.
"""

__version__ = "0.1.0"
