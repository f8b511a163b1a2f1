"""``python -m pavls``: the command-line interface of :mod:`pavls.cli`."""

from pavls.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
