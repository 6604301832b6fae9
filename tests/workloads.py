"""Shared work-function sources used across the test suite."""

# Work-function sources reused across tests.

SUM_SRC = """
def total(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop()
    push(acc)
"""

SDOT_SRC = """
def sdot(n):
    acc = 0.0
    for i in range(n):
        acc = acc + pop() * pop()
    push(acc)
"""

SNRM2_SRC = """
def snrm2(n):
    acc = 0.0
    for i in range(n):
        x = pop()
        acc = acc + x * x
    push(sqrt(acc))
"""

SASUM_SRC = """
def sasum(n):
    acc = 0.0
    for i in range(n):
        acc = acc + abs(pop())
    push(acc)
"""

ISAMAX_SRC = """
def isamax(n):
    best = -1.0
    besti = 0
    for i in range(n):
        x = abs(pop())
        if x > best:
            best = x
            besti = i
    push(besti)
"""

SCALE_SRC = """
def scale(n, a):
    for i in range(n):
        push(a * pop())
"""

SAXPY_SRC = """
def saxpy(n, a):
    for i in range(n):
        x = pop()
        y = pop()
        push(a * x + y)
"""

STENCIL5_SRC = """
def stencil5(size, width):
    for index in range(size):
        if (index % width >= 1) and (index % width < width - 1) \
                and (index >= width) and (index < size - width):
            push(0.25 * (peek(index - width) + peek(index + width)
                         + peek(index - 1) + peek(index + 1)))
        else:
            push(peek(index))
    for j in range(size):
        _ = pop()
"""

# One-sided stencils: the lowest and highest tap are not mirror images.
# The first reads right and below under a guard; the second reads left
# and below with no guard, so the plans' own all-taps-in-bounds test
# decides which cells fall back to the center.
STENCIL_ONE_SIDED_SRC = """
def one_sided(size, width):
    for index in range(size):
        if (index % width < width - 1) and (index < size - width):
            push(0.5 * peek(index)
                 + 0.25 * (peek(index + 1) + peek(index + width)))
        else:
            push(peek(index))
    for j in range(size):
        _ = pop()
"""

STENCIL_ONE_SIDED_UNGUARDED_SRC = """
def one_sided_unguarded(size, width):
    for index in range(size):
        push(0.5 * peek(index)
             + 0.25 * (peek(index - 1) + peek(index + width)))
    for j in range(size):
        _ = pop()
"""

# Radius 2 under a 2-cell border guard; the compute and the fallback
# both read the cell index (the fallback lifts to 0.5 * _p4 + 0.25 * _i).
STENCIL_RADIUS2_INDEXED_SRC = """
def radius2(size, width):
    for index in range(size):
        if (index % width >= 2) and (index % width < width - 2) \
                and (index >= 2 * width) and (index < size - 2 * width):
            push(0.1 * (peek(index - 2 * width) + peek(index + 2 * width)
                        + peek(index - 2) + peek(index + 2) + peek(index))
                 + 0.001 * index)
        else:
            push(0.5 * peek(index) + 0.25 * index)
    for j in range(size):
        _ = pop()
"""
