"""Minimal position-tracking XML layer.

Why not xml.etree: the policy dialect uses a literal ``spl:`` element prefix
with no namespace declaration, which ElementTree rejects as an unbound prefix,
and ElementTree keeps no source positions for post-parse schema errors.  Raw
expat (namespace processing off) accepts the prefix verbatim and reports
line/column during the start handler, which is all we need.

:func:`parse_events` runs expat over a document with the caller's handlers.
No handler holds the parser, which holds the handlers, so a parse leaves no
reference cycle behind for the garbage collector.

:func:`parse_xml` builds the tree in that one pass: each element takes its
position as it starts, and as it closes its text is trimmed when it is a
leaf and dropped when it has children.  No step recurses, so a deeply
nested document builds like a flat one and is left to the schema checks.

:func:`each_child` holds the one child rule every reader keeps: an element
takes only the child tags its reader names, each either once or many times,
and the first child that breaks the rule is refused at its position.

The writer emits one canonical form: XML declaration, two-space indentation,
attributes sorted by name, text only on leaf elements, LF line endings.  Two
documents that differ only in attribute order or insignificant whitespace
render to identical bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from xml.parsers import expat

from .errors import DocumentError, MalformedXmlError, UnknownElementError

XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>'


@dataclass(slots=True)
class XmlNode:
    """One element: tag, attributes, child elements, and leaf text."""

    tag: str
    attrib: dict[str, str] = field(default_factory=dict)
    children: list["XmlNode"] = field(default_factory=list)
    text: str = ""
    line: int = 0
    column: int = 0

    def get(self, name: str, default: str | None = None) -> str | None:
        return self.attrib.get(name, default)

    def find(self, tag: str) -> "XmlNode | None":
        for c in self.children:
            if c.tag == tag:
                return c
        return None


_parsing = threading.local()  # .parser: the expat parser running on this thread


def _position() -> tuple[int, int]:
    """Line and column of the element whose start handler is running."""
    parser = _parsing.parser
    return parser.CurrentLineNumber, parser.CurrentColumnNumber


def parse_events(text: str | bytes, start, end=None, chars=None) -> None:
    """Run expat over a document, calling ``start(tag, attrs)``,
    ``end(tag)`` and ``chars(data)`` as its events arrive.

    Raises MalformedXmlError (with line/column) on any well-formedness
    failure; an exception a handler raises propagates unchanged.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedXmlError(f"not valid UTF-8: {exc}") from exc

    parser = expat.ParserCreate("UTF-8")
    parser.StartElementHandler = start
    if end is not None:
        parser.EndElementHandler = end
    if chars is not None:
        # buffer_text joins adjacent character-data events so text arrives whole
        parser.buffer_text = True
        parser.CharacterDataHandler = chars
    outer = getattr(_parsing, "parser", None)
    _parsing.parser = parser
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise MalformedXmlError(
            expat.errors.messages[exc.code], line=exc.lineno, column=exc.offset
        ) from exc
    finally:
        _parsing.parser = outer


def parse_xml(text: str | bytes) -> XmlNode:
    """Parse a document into an XmlNode tree.

    Raises MalformedXmlError (with line/column) on any well-formedness
    failure, including documents with no root element.
    """
    stack: list[XmlNode] = []
    root: list[XmlNode] = []

    def start(tag: str, attrs: dict[str, str]) -> None:
        line, column = _position()
        node = XmlNode(tag=tag, attrib=attrs, line=line, column=column)
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag: str) -> None:
        # container elements keep no text; leaf text is trimmed at both ends
        node = stack.pop()
        node.text = "" if node.children else node.text.strip()

    def chars(data: str) -> None:
        if stack:
            stack[-1].text += data

    parse_events(text, start, end, chars)
    if not root:
        raise MalformedXmlError("document has no root element")
    return root[0]


def parse_root(text: str | bytes, tag: str) -> XmlNode:
    """Parse a document whose root element must be ``<tag>``."""
    root = parse_xml(text)
    if root.tag != tag:
        raise UnknownElementError(
            f"expected <{tag}> root, found <{root.tag}>", root.line, root.column
        )
    return root


def required_attr(node: XmlNode, name: str) -> str:
    """The value of a required, non-empty XML attribute; DocumentError otherwise."""
    value = node.get(name)
    if value is None or value == "":
        raise DocumentError(
            f"<{node.tag}> is missing required attribute {name!r}", node.line, node.column
        )
    return value


def unexpected(child: XmlNode, where: str) -> UnknownElementError:
    """The error for a child element the schema does not allow ``where``
    (a phrase such as ``in <Target>``)."""
    return UnknownElementError(
        f"unexpected element <{child.tag}> {where}", child.line, child.column
    )


def each_child(node: XmlNode, once=(), many=(), where: str | None = None):
    """Yield ``node``'s children in document order.  A child whose tag is in
    neither ``once`` nor ``many`` raises :func:`unexpected` (``where``
    defaults to ``in <tag>``), and a second child whose tag is in ``once``
    raises UnknownElementError.  Lazy, so a reader that handles each child
    as it comes still raises the first fault in document order."""
    seen: set[str] = set()
    for child in node.children:
        tag = child.tag
        if tag in many:
            yield child
        elif tag in once:
            if tag in seen:
                raise UnknownElementError(
                    f"<{node.tag}> has more than one <{tag}>", child.line, child.column
                )
            seen.add(tag)
            yield child
        else:
            raise unexpected(child, where or f"in <{node.tag}>")


def render_xml(node: XmlNode) -> str:
    """Render a tree to its canonical textual form (ends with one newline)."""
    lines = [XML_DECL]
    _render_into(node, lines, 0)
    return "\n".join(lines) + "\n"


def escape_text(text: str) -> str:
    """Character data with ``& < >`` written as entities ("&" first, so no
    entity written here is escaped again)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(text: str) -> str:
    """An attribute value for double quotes; line breaks and tabs become
    character references, so they survive attribute-value normalization."""
    return (
        escape_text(text)
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def _render_into(node: XmlNode, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    attrs = "".join(
        f' {name}="{escape_attr(value)}"'
        for name, value in sorted(node.attrib.items())
    )
    if node.children:
        lines.append(f"{pad}<{node.tag}{attrs}>")
        for child in node.children:
            _render_into(child, lines, depth + 1)
        lines.append(f"{pad}</{node.tag}>")
    elif node.text:
        lines.append(f"{pad}<{node.tag}{attrs}>{escape_text(node.text)}</{node.tag}>")
    else:
        lines.append(f"{pad}<{node.tag}{attrs}/>")


def elem(tag: str, attrib: dict[str, str] | None = None, *children: XmlNode, text: str = "") -> XmlNode:
    """Convenience constructor for serializers."""
    return XmlNode(tag=tag, attrib=dict(attrib or {}), children=list(children), text=text)
