"""``python -m lossywalk``: the same command line as the ``lossywalk`` script."""

from .cli import main

if __name__ == "__main__":
    main()
