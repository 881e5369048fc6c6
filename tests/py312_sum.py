"""CPython 3.12's built-in `sum()`, written in Python.

From 3.12 on, `sum()` adds exact floats with Neumaier's compensation, while
3.11 and the code under test add left to right. Swapping this function in for
`builtins.sum` runs the exact-float tests under 3.12's rule on any Python, so
a reference that relies on `sum()` adding left to right fails everywhere, not
only where 3.12 runs with numpy. It follows `builtin_sum_impl` in
Python/bltinmodule.c (3.12): an int fast path while the total fits a C long,
then a compensated float path for exact floats that also takes ints fitting a
C long (uncompensated), then plain `+` for everything else.
"""

import math

_LONG_MIN, _LONG_MAX = -(1 << 63), (1 << 63) - 1


def _fits_long(x):
    return _LONG_MIN <= x <= _LONG_MAX


def sum312(iterable, /, start=0):
    it = iter(iterable)
    result = start
    if type(result) is int and _fits_long(result):
        total = result
        for item in it:
            if (type(item) is int or type(item) is bool) and _fits_long(item) \
                    and _fits_long(total + item):
                total += item
                continue
            result = total + item
            break
        else:
            return total
    if type(result) is float:
        total, c = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _fits_long(item):
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            result = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in it:
        result = result + item
    return result
