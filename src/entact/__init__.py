"""Discord-to-entanglement activation: state families, measurement circuit,
correlation measures, finite-net certification, and simulated tomography.

Each name imports from its own module (`from entact.qcore import chi_q`), so
`import entact` alone loads neither numpy nor any of them."""

__version__ = "0.1.0"
