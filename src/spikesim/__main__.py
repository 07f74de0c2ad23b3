import os
import sys

from .cli import main

code = main()
# main closed every file it wrote, so skip the interpreter's teardown.
sys.stdout.flush()
sys.stderr.flush()
os._exit(code)
