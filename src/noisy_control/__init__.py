"""Tools for controlled jump-diffusions with delay and noisy memory.

Submodules:
    paths         grids and driving noise
    dynamics      coefficient models, state simulation, 2D reduction
    malliavin     chaos-1 calculus, duality and martingale-representation checks
    adjoint       Hamiltonian, backward equations, closed forms, bridge maps
    maxprinciple  derivative processes, optimality checks, spike perturbations
    scenarios     ready-made model instances
    verification  graded acceptance criteria and report writer
    cli           config-driven runner (run / list / verify)
"""

__version__ = "0.1.0"
