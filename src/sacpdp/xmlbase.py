"""Minimal position-tracking XML layer.

Why not xml.etree: the policy dialect uses a literal ``spl:`` element prefix
with no namespace declaration, which ElementTree rejects as an unbound prefix,
and ElementTree keeps no source positions for post-parse schema errors.  Raw
expat (namespace processing off) accepts the prefix verbatim and reports
line/column during the start handler, which is all we need.

The writer emits one canonical form: XML declaration, two-space indentation,
attributes sorted by name, text only on leaf elements, LF line endings.  Two
documents that differ only in attribute order or insignificant whitespace
render to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from xml.parsers import expat

from .errors import MalformedXmlError, UnknownElementError

# "&" comes first, so no entity written here is escaped again
_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;", "\n": "&#10;", "\t": "&#9;", "\r": "&#13;"}

XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>'


@dataclass
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

    def find_all(self, tag: str) -> list["XmlNode"]:
        return [c for c in self.children if c.tag == tag]

    def find(self, tag: str) -> "XmlNode | None":
        for c in self.children:
            if c.tag == tag:
                return c
        return None


def parse_xml(text: str | bytes) -> XmlNode:
    """Parse a document into an XmlNode tree.

    Raises MalformedXmlError (with line/column) on any well-formedness
    failure, including documents with no root element.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedXmlError(f"not valid UTF-8: {exc}") from exc

    parser = expat.ParserCreate("UTF-8")
    # buffer_text joins adjacent character-data events so leaf text arrives whole
    parser.buffer_text = True
    stack: list[XmlNode] = []
    root: list[XmlNode] = []

    def start(tag: str, attrs: dict[str, str]) -> None:
        node = XmlNode(
            tag=tag,
            attrib=dict(attrs),
            line=parser.CurrentLineNumber,
            column=parser.CurrentColumnNumber,
        )
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag: str) -> None:
        stack.pop()

    def chars(data: str) -> None:
        if stack:
            stack[-1].text += data

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise MalformedXmlError(
            expat.errors.messages[exc.code], line=exc.lineno, column=exc.offset
        ) from exc
    if not root:
        raise MalformedXmlError("document has no root element")
    tree = root[0]
    _strip_whitespace(tree)
    return tree


def parse_root(text: str | bytes, tag: str) -> XmlNode:
    """Parse a document whose root element must be ``<tag>``."""
    root = parse_xml(text)
    if root.tag != tag:
        raise UnknownElementError(
            f"expected <{tag}> root, found <{root.tag}>", root.line, root.column
        )
    return root


def unexpected(child: XmlNode, where: str) -> UnknownElementError:
    """The error for a child element the schema does not allow ``where``
    (a phrase such as ``in <Target>``)."""
    return UnknownElementError(
        f"unexpected element <{child.tag}> {where}", child.line, child.column
    )


def _strip_whitespace(node: XmlNode) -> None:
    # container elements keep no text; leaf text is trimmed at both ends
    if node.children:
        node.text = ""
        for child in node.children:
            _strip_whitespace(child)
    else:
        node.text = node.text.strip()


def render_xml(node: XmlNode) -> str:
    """Render a tree to its canonical textual form (ends with one newline)."""
    lines = [XML_DECL]
    _render_into(node, lines, 0)
    return "\n".join(lines) + "\n"


def _escape(text: str, escapes: dict[str, str]) -> str:
    for char, entity in escapes.items():
        text = text.replace(char, entity)
    return text


def _render_into(node: XmlNode, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    attrs = "".join(
        f' {name}="{_escape(value, _ATTR_ESCAPES)}"'
        for name, value in sorted(node.attrib.items())
    )
    if node.children:
        lines.append(f"{pad}<{node.tag}{attrs}>")
        for child in node.children:
            _render_into(child, lines, depth + 1)
        lines.append(f"{pad}</{node.tag}>")
    elif node.text:
        lines.append(f"{pad}<{node.tag}{attrs}>{_escape(node.text, _TEXT_ESCAPES)}</{node.tag}>")
    else:
        lines.append(f"{pad}<{node.tag}{attrs}/>")


def elem(tag: str, attrib: dict[str, str] | None = None, *children: XmlNode, text: str = "") -> XmlNode:
    """Convenience constructor for serializers."""
    return XmlNode(tag=tag, attrib=dict(attrib or {}), children=list(children), text=text)
