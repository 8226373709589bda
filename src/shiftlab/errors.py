"""Shared budget defaults, failure types and the record class decorator.

The defaults live here, not in the layers that spend them, so `config`
can fill in a document's budgets without loading any layer.  `record`
builds every layer's frozen value classes without the dataclass module.
"""

from operator import attrgetter

DEFAULT_TABLE_BUDGET = 2_000_000
DEFAULT_BFS_STATES = 5_000_000
DEFAULT_RADIUS = 14
# ball_growth fits lines over radii max(2, radius // 2)..radius, and a line
# needs two of them
MIN_GROWTH_RADIUS = 3
# Z^d builds d basis tuples of length d, so a document's rank is capped
MAX_FREE_ABELIAN_RANK = 256
# a depth of n builds n output rows, so a document's depth is capped
MAX_DEPTH = 100_000


class BudgetExceededError(RuntimeError):
    """An enumeration or search outgrew its configured budget.

    Carries enough context to let callers report a truncated result
    instead of a silently wrong one.
    """

    def __init__(self, kind: str, limit: int, attempted: int, context: str):
        self.kind = kind
        self.limit = limit
        self.attempted = attempted
        self.context = context
        try:
            needed = str(attempted)
        except ValueError:
            # more digits than the interpreter will print
            needed = f"at least 2**{attempted.bit_length() - 1}"
        super().__init__(f"{kind} budget exceeded: needed {needed}, limit {limit} ({context})")


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the element."""


class field(dict):
    """A record field's options: default, default_factory and compare."""


def record(cls):
    """Make cls a frozen value class of its annotated fields, as
    @dataclass(frozen=True) would, but with no code generated for it."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    specs = {name: cls.__dict__.get(name, field()) for name in names}
    specs = {name: s if isinstance(s, field) else field(default=s) for name, s in specs.items()}
    arity, places, post = len(names), tuple(enumerate(names)), getattr(cls, "__post_init__", None)
    compared = [name for name in names if specs[name].get("compare", True)]
    key = attrgetter(*compared) if len(compared) > 1 else lambda self: (getattr(self, *compared),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = list(args)
            for name in names[len(args):]:
                spec = specs[name]
                if name in kwargs:
                    args.append(kwargs.pop(name))
                elif "default_factory" in spec:
                    args.append(spec["default_factory"]())
                elif "default" in spec:
                    args.append(spec["default"])
                else:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            if kwargs or len(args) > arity:
                raise TypeError(f"{cls.__name__}() takes only the fields {', '.join(names)}")
        # the hot call passes every field positionally: no zip, no dict.update
        fields = self.__dict__
        for i, name in places:
            fields[name] = args[i]
        if post is not None:
            post(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    cls.__init__, cls.__repr__, cls._fields = __init__, __repr__, names
    cls.__setattr__ = cls.__delattr__ = __setattr__
    cls.__eq__ = lambda self, other: (
        key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented
    )
    cls.__hash__ = lambda self: hash(key(self))
    return cls


def asdict(rec) -> dict:
    """A record's fields by name, in order; the values are not copied."""
    return {name: getattr(rec, name) for name in rec._fields}


def replace(rec, **changes):
    """A record of rec's class with rec's fields, changes applied."""
    return rec.__class__(**{**asdict(rec), **changes})
