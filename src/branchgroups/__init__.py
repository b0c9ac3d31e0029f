"""Exact computation in finite quotients of self-similar p-adic tree groups."""

from .catalog import (BranchType, MultiEGSInstance, SunicInstance,
                      appb_d_words, branch_type, fabrykowski_gupta,
                      gupta_sidki, has_csp, in_class_E, is_torsion, make_ggs,
                      make_multi_egs, make_multi_ggs, make_sunic, preset,
                      r_dot)
from .context import GroupContext, SplitMix64
from .engine import (InducedPcgs, ResourceGuardError, Subgroup,
                     commutator_subgroup, frattini_subgroup, group_of,
                     is_regular_branch_over, is_super_strongly_fractal, join,
                     min_generators, normal_closure)
from .gmodules import (GModule, compute_rm, image_in_wm, submodule_closure,
                       twisted_sum, uniserial_chain, vj_basis, wm_module)
from .linalg import FpSubspace
from .reports import VerificationReport
from .suite import run_all, run_check
from .trees import Portrait, assemble, commutator, embed_at_vertex, rooted_a

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
