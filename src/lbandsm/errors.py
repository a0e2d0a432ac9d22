"""Exception types shared across the package, and the read of a data
file that reports undecodable bytes as one of them."""


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


def decode_text(data, path):
    """The UTF-8 text of bytes read from `path`. A byte sequence that is
    not UTF-8 is a DataError naming the path and the line it is on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(str(exc), path=path,
                        line=data[:exc.start].count(b"\n") + 1) from None


def read_text(path):
    """The UTF-8 text of a data file, decoded by decode_text."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path)
