"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input value is outside the physically meaningful range."""


class ConfigError(Exception):
    """A configuration file is missing, inconsistent, or incomplete."""


class DataError(Exception):
    """An input data file is malformed.

    Carries optional path/line context so batch drivers can point at the
    offending record.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)
