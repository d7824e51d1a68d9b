"""Local quantization of a Klein-Gordon field in a 1D box.

Two complete quantizations of the same field — box modes on [0, R] versus
the union of two independent sub-boxes meeting at r — are linked by an
explicit Bogoliubov dictionary. This package computes that dictionary in
closed form, checks it against quadrature, and exposes the observables
that distinguish the two Fock spaces: local particle content of the global
vacuum, inter-region number correlations, unitary-inequivalence divergence
diagnostics, quasi-local single-particle states, and causality checks for
the evolved local modes.
"""

# The package re-publishes the physics modules' interfaces, the one case
# PEP 8 names for a wildcard import; each name is declared once, in its module.
from . import bogoliubov, causality, config, fock_oracle, modes, quadrature, quasilocal, vacuum
from .bogoliubov import *
from .causality import *
from .config import *
from .fock_oracle import *
from .modes import *
from .output import VERSION as __version__
from .quadrature import *
from .quasilocal import *
from .vacuum import *

__all__ = sorted({name for module in (bogoliubov, causality, config, fock_oracle, modes,
                                      quadrature, quasilocal, vacuum)
                  for name in module.__all__})
