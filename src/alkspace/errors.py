"""Errors that the command line maps to its exit codes, kept apart from
the modules that raise them so that ``alkspace.cli`` imports nothing else
before it knows which command runs."""


class ConfigError(ValueError):
    """Invalid or inconsistent pipeline configuration."""
