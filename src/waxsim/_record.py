"""Frozen value records: the one class decorator of waxsim's data types.

``@record`` reads a class's annotated fields, in order, and gives it:

- ``__init__(*args, **kwargs)``, binding positional then keyword arguments
  to the fields in order, with the class-level defaults. A missing, unknown
  or repeated argument is a ``TypeError``. ``__post_init__``, if the class
  defines one, runs once the fields are set; it sets a derived field (one
  whose default is :data:`DERIVED`) with ``object.__setattr__``, and the
  constructor refuses it as an argument.
- ``__setattr__`` and ``__delattr__`` that raise ``AttributeError`` naming
  the attribute. An instance keeps its ``__dict__``, so a
  ``functools.cached_property`` memo still works.
- ``__repr__``: ``Name(field=value, ...)`` over every field.
- ``__eq__`` and ``__hash__`` over the field values, between instances of
  one class; with ``eq=False`` the class keeps identity equality.
- ``replace(**changes)``: a new instance with some fields changed, built
  by the constructor, so ``__post_init__`` validates it again.

It generates no source code and imports nothing, so building the records
of a module costs next to nothing at import.
"""


#: Default of a field that ``__post_init__`` computes from the others.
DERIVED = object()


def record(cls=None, /, *, eq: bool = True):
    """Make ``cls`` a frozen record; ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)

    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    derived = {name for name, value in defaults.items() if value is DERIVED}
    for name in derived:
        del defaults[name]
        delattr(cls, name)
    params = tuple(name for name in names if name not in derived)
    post_init = cls.__dict__.get("__post_init__")
    qualname = cls.__qualname__

    every_param = frozenset(params)

    def bind(args, kwargs):
        """The field values of a call, with the defaults, checking each rule."""
        if len(args) > len(params):
            raise TypeError(
                f"{qualname}() takes {len(params)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(params, args))
        for name in kwargs:
            if name in derived:
                raise TypeError(f"{qualname}() got derived field {name!r} as an argument")
            if name not in every_param:
                raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        values.update(kwargs)
        for name in params:
            if name not in values:
                if name not in defaults:
                    raise TypeError(f"{qualname}() missing required argument {name!r}")
                values[name] = defaults[name]
        return values

    def __init__(self, *args, **kwargs):
        # every field by position, or every field by keyword: nothing to check
        if not kwargs and len(args) == len(params):
            self.__dict__.update(zip(params, args))
        elif not args and kwargs.keys() == every_param:
            self.__dict__.update(kwargs)
        else:
            self.__dict__.update(bind(args, kwargs))
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{qualname}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated as a new instance is."""
        return type(self)(**({name: getattr(self, name) for name in params} | changes))

    methods = [__init__, __setattr__, __delattr__, __repr__, replace]

    if eq:
        def _values(self):
            return tuple([getattr(self, name) for name in names])

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return _values(self) == _values(other)

        def __hash__(self):
            return hash(_values(self))

        methods += [__eq__, __hash__]

    for method in methods:
        setattr(cls, method.__name__, method)
    return cls
