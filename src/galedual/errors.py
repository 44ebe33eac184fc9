"""Exception types shared across the package."""


class GaleDualError(Exception):
    """Base class for all package-specific failures."""


class InvariantError(GaleDualError):
    """An internal invariant failed: a defect in the package, not in the input.

    Raised where a plain assert would vanish under ``python -O``.
    """


class SchemaError(GaleDualError):
    """Input file or dict does not match the documented schema.

    Carries the offending field path in ``field`` so CLI errors can name it.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class OutputError(GaleDualError):
    """The output file cannot be written."""


class NotPrimitiveError(GaleDualError):
    """A lattice that must be primitive (saturation index 1) is not.

    ``index`` is the saturation index that was found.
    """

    def __init__(self, index, what="lattice"):
        self.index = index
        super().__init__(f"{what} is not primitive: saturation index {index}")


class DependentRowsError(GaleDualError):
    """Rows required to be linearly independent over Q are dependent."""


class NoPivotError(GaleDualError):
    """No invertible coefficient submatrix on any pivot set: the equations
    are inconsistent."""


class DegenerateDualError(GaleDualError):
    """The pivot equations of a sparse system give no hyperplane
    arrangement: a form with zero gradient, or two proportional forms."""


class NotEssentialError(GaleDualError):
    """Arrangement forms together with 1 do not span the degree-one space."""


class CommonComponentError(GaleDualError):
    """The two curves share a component; the solution set is not finite."""


class DegreeCapError(GaleDualError):
    """Polynomial degree exceeds the solver's supported cap."""


class DimensionCapError(GaleDualError):
    """System dimensions exceed the solver's supported caps."""


class SeparationError(GaleDualError):
    """No tried projection separates the common zeros of a bivariate pair."""


class ConvergenceError(GaleDualError):
    """An iteration ran out of passes before every root settled."""
