import inspect

import dynseq


def test_every_public_name_is_exported():
    public = {name for name, obj in vars(dynseq).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == set(dynseq.__all__)
