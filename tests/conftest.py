# re-exported for the test modules
from sfwg.checks import monomial_field, random_free_function  # noqa: F401
