"""Post-hoc calibrated anomaly detection at desk scale."""

__version__ = "0.1.0"

from .errors import CaladError, ConfigError, DataError, NumericalError

# The choice lists of ``calad run``, declared here so that the CLI parser
# can offer them without importing the modules that run experiments.
LOSSES = ("svdd", "hsc", "logistic", "ssim", "fcdd")
CALIBRATORS = ("none", "platt", "beta", "head")
ANOMALY_SOURCES = ("oe", "spectral")

__all__ = ["ANOMALY_SOURCES", "CALIBRATORS", "CaladError", "ConfigError", "DataError",
           "LOSSES", "NumericalError", "__version__"]
