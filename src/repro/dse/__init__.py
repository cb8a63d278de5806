"""The paper's Table 2 design space (driving Figures 5 and 9)."""

from repro.dse.space import default_design_space, reduced_design_space

__all__ = ["default_design_space", "reduced_design_space"]
