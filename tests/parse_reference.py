"""The character-cursor parser that `twistkit.forests` used before its
token scanner, kept as a reference for the tests: the same grammar, errors
and trees, from an independent reading of the text.  Each vertex is built
through the public `RootedTree` constructor from a stack of open children."""

from twistkit.errors import ParseError
from twistkit.forests import LEAF, RootedForest, RootedTree, TwistWord, word_to_tree


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, expected):
        found = self.peek() or "end of input"
        raise ParseError(f"unexpected {found!r}", self.pos, expected)

    def eat(self, literal: str):
        self._skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error({literal})
        self.pos += len(literal)

    def try_eat(self, literal: str) -> bool:
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error({"integer"})
        return int(self.text[start:self.pos])

    def factor(self) -> RootedTree:
        self._skip_ws()
        if self.try_eat("twist"):
            return word_to_tree(self.word_body())
        return self.tree()

    def word_body(self) -> TwistWord:
        self.eat("(")
        steps = [(self.integer(), 1)]
        while self.try_eat(";"):
            k = self.integer()
            self.eat("@")
            l = self.integer()
            steps.append((k, l))
        self.eat(")")
        return TwistWord(tuple(steps))

    def tree(self) -> RootedTree:
        open_children: list[list[RootedTree]] = []  # one list per open "("
        while True:
            self._skip_ws()
            if self.try_eat("("):
                open_children.append([])
                continue
            if not (self.try_eat("L") or self.try_eat("point")):
                self.error({"L", "point", "("})
            node = LEAF
            while open_children:
                open_children[-1].append(node)
                self._skip_ws()
                if not self.try_eat(")"):
                    if self.peek() in ("", "*"):
                        self.error({")", "L", "point", "("})
                    break
                node = RootedTree(tuple(open_children.pop()))
            else:
                return node

    def forest(self) -> RootedForest:
        trees = [self.factor()]
        while self.try_eat("*"):
            trees.append(self.factor())
        self._skip_ws()
        if self.pos != len(self.text):
            self.error({"*", "end of input"})
        return RootedForest(tuple(trees))


def reference_parse_forest(text: str) -> RootedForest:
    return _Parser(text).forest()


def reference_parse_word(text: str) -> TwistWord:
    p = _Parser(text)
    p._skip_ws()
    if p.try_eat("twist"):
        word = p.word_body()
    elif p.try_eat("L") or p.try_eat("point"):
        word = TwistWord(())
    else:
        p.error({"twist", "L", "point"})
    p._skip_ws()
    if p.pos != len(text):
        p.error({"end of input"})
    return word
