"""`python -m invclust`: the same command line as the installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
