import pytest

from tdbnet.values import BOOL, INT, TEXT, TS, ColorType, conforms, product


def test_scalar_conformance():
    assert conforms(5, INT)
    assert conforms(-3, INT)
    assert not conforms("5", INT)
    assert conforms("hi", TEXT)
    assert not conforms(5, TEXT)
    assert conforms(True, BOOL)
    assert conforms(1250, TS)


def test_bool_is_not_an_int_value():
    # bool is an int subclass in Python; the type system keeps them apart
    assert not conforms(True, INT)
    assert not conforms(False, TS)
    assert not conforms(1, BOOL)


def test_product_conformance():
    msg = product(INT, TEXT)
    assert conforms((1, "a"), msg)
    assert not conforms((1,), msg)
    assert not conforms(("a", 1), msg)
    assert not conforms([1, "a"], msg)


def test_product_labels():
    msg = product(INT, TEXT, labels=("mid", "body"))
    assert msg.labels == ("mid", "body")
    with pytest.raises(ValueError):
        product(INT, TEXT, labels=("only_one",))


def test_no_nested_products():
    inner = product(INT, INT)
    with pytest.raises(ValueError):
        product(inner, TEXT)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ColorType("float")
    with pytest.raises(ValueError):
        ColorType("product")  # products need components

