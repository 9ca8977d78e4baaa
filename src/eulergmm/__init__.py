"""Weak-identification-robust GMM inference for linearized investment Euler equations."""

from .design import (
    BASELINE_INSTRUMENTS,
    CAC_INSTRUMENTS,
    TWO_LAG_INSTRUMENTS,
    InstrumentSpec,
    MomentSystem,
    ResidualSpec,
    build_design,
    residuals_and_moments,
)
from .grids import (
    AxisSpec,
    ConfidenceGrid,
    GridSpec,
    collect_results,
    default_cac_grid,
    default_semi_grid,
    default_structural_grid,
    export_grid,
    invert_test,
    make_grid,
    set_summary,
)
from .hac import HACConfig, hac_variance
from .inference import (
    SplitSpec,
    TestResult,
    first_stage_diagnostics,
    qll_s_statistic,
    qll_s_statistics,
    s_statistic,
    s_statistics,
    split_sample_s_statistic,
    split_sample_s_statistics,
)
from .models import (
    CACParams,
    CalibratedConstants,
    LITERATURE_POINTS,
    ModelKind,
    SemiStructuralParams,
    StructuralParams,
    cac_coefficients,
    constants_from_calibration,
    iac_coefficients,
    map_structural_to_semi,
    semi_coefficients,
)
from .pipeline import (
    Dataset,
    InvestmentMeasure,
    PipelineError,
    Series,
    TransformSpec,
    assemble_dataset,
    build_investment_measure,
    compute_inflation,
    compute_real_rate,
    fetch_fred_series,
    load_series_csv,
    read_panel_csv,
    transform_external,
    write_panel_csv,
)
from .quantiles import chi2_quantile
from .quarters import QuarterIndex

__version__ = "0.1.0"
