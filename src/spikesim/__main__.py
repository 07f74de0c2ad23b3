import sys

from .cli import run_and_exit

run_and_exit(sys.argv[1:])
