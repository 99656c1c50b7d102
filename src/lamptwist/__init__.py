"""Exact twisted-conjugacy computations for restricted wreath products Z_m wr Z^k.

The top-level names are the entry points: element and automorphism types,
the element grammar, the Reidemeister verdict, the twisted-conjugacy
decisions, the group-level R-infinity answer and the finite-quotient
oracle.  Everything else lives in its submodule; the paper's proof devices
are in ``lamptwist.devices``.
"""

from .lattice import IntMatrix
from .wreath import (
    FiniteSupportFunction,
    WreathAutomorphism,
    WreathElement,
    format_element,
    parse_element,
)
from .reidemeister import (
    ConjugacyAnswer,
    GroupStatus,
    ReidemeisterVerdict,
    are_twisted_conjugate_full,
    are_twisted_conjugate_sigma,
    class_representatives,
    r_infinity_status,
    reidemeister_number,
)
from .finite_oracle import (
    BudgetExceededError,
    induce_automorphism,
    oracle_report,
)

__version__ = "0.1.0"
