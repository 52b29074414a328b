#include "parser/parser.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace cqac {

namespace {

enum class TokKind {
  kLowerIdent,
  kUpperIdent,
  kNumber,
  kLParen,
  kRParen,
  kComma,
  kTurnstile,  // :-
  kPeriod,
  kLt,
  kLe,
  kEq,
  kNe,
  kGe,
  kGt,
  kEnd,
  kError,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  Rational number;
  int line = 1;
  int col = 1;
};

/// Single-pass lexer over the rule text.  Produced tokens carry 1-based
/// line/column for error messages.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Next() {
    SkipWhitespaceAndComments();
    Token tok;
    tok.line = line_;
    tok.col = col_;
    if (pos_ >= text_.size()) {
      tok.kind = TokKind::kEnd;
      return tok;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return LexIdent(tok);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        ((c == '-' || c == '+') && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      return LexNumber(tok);
    }
    switch (c) {
      case '(':
        Advance();
        tok.kind = TokKind::kLParen;
        return tok;
      case ')':
        Advance();
        tok.kind = TokKind::kRParen;
        return tok;
      case ',':
        Advance();
        tok.kind = TokKind::kComma;
        return tok;
      case '.':
        Advance();
        tok.kind = TokKind::kPeriod;
        return tok;
      case ':':
        Advance();
        if (pos_ < text_.size() && text_[pos_] == '-') {
          Advance();
          tok.kind = TokKind::kTurnstile;
          return tok;
        }
        tok.kind = TokKind::kError;
        tok.text = "expected '-' after ':'";
        return tok;
      case '<':
        Advance();
        if (pos_ < text_.size() && text_[pos_] == '=') {
          Advance();
          tok.kind = TokKind::kLe;
        } else {
          tok.kind = TokKind::kLt;
        }
        return tok;
      case '>':
        Advance();
        if (pos_ < text_.size() && text_[pos_] == '=') {
          Advance();
          tok.kind = TokKind::kGe;
        } else {
          tok.kind = TokKind::kGt;
        }
        return tok;
      case '=':
        Advance();
        // Accept both `=` and `==`.
        if (pos_ < text_.size() && text_[pos_] == '=') Advance();
        tok.kind = TokKind::kEq;
        return tok;
      case '!':
        Advance();
        if (pos_ < text_.size() && text_[pos_] == '=') {
          Advance();
          tok.kind = TokKind::kNe;
          return tok;
        }
        tok.kind = TokKind::kError;
        tok.text = "expected '=' after '!'";
        return tok;
      default:
        tok.kind = TokKind::kError;
        tok.text = std::string("unexpected character '") + c + "'";
        return tok;
    }
  }

 private:
  void Advance() {
    if (pos_ < text_.size()) {
      if (text_[pos_] == '\n') {
        ++line_;
        col_ = 1;
      } else {
        ++col_;
      }
      ++pos_;
    }
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        break;
      }
    }
  }

  Token LexIdent(Token tok) {
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '\'')) {
      name += text_[pos_];
      Advance();
    }
    tok.text = name;
    tok.kind = std::isupper(static_cast<unsigned char>(name[0]))
                   ? TokKind::kUpperIdent
                   : TokKind::kLowerIdent;
    return tok;
  }

  bool AtDigit(size_t offset = 0) const {
    return pos_ + offset < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + offset]));
  }

  /// Consumes a run of digits into *value; false when the value overflows
  /// int64_t (the digits are consumed either way).  Counts the digits into
  /// *count when non-null.
  bool LexDigits(int64_t* value, int* count = nullptr) {
    bool fits = true;
    while (AtDigit()) {
      fits = fits && !__builtin_mul_overflow(*value, 10, value) &&
             !__builtin_add_overflow(*value, text_[pos_] - '0', value);
      if (count != nullptr) ++*count;
      Advance();
    }
    return fits;
  }

  /// Integers, decimals (`2.5`) and `num/den` rationals, the form
  /// Rational::ToString emits, so serialized comparisons round-trip.  A
  /// literal that does not fit int64_t or divides by zero is an error
  /// token, reported at the literal's position.
  Token LexNumber(Token tok) {
    const size_t start = pos_;
    bool negative = false;
    if (text_[pos_] == '-' || text_[pos_] == '+') {
      negative = text_[pos_] == '-';
      Advance();
    }
    int64_t num = 0;
    int64_t den = 1;
    bool fits = LexDigits(&num);
    if (pos_ < text_.size() && text_[pos_] == '.' && AtDigit(1)) {
      Advance();  // consume '.'
      int64_t frac = 0;
      int digits = 0;
      fits = LexDigits(&frac, &digits) && fits;
      for (int i = 0; i < digits; ++i) {
        fits = fits && !__builtin_mul_overflow(den, 10, &den);
      }
      fits = fits && !__builtin_mul_overflow(num, den, &num) &&
             !__builtin_add_overflow(num, frac, &num);
    } else if (pos_ < text_.size() && text_[pos_] == '/' && AtDigit(1)) {
      Advance();  // consume '/'
      den = 0;
      fits = LexDigits(&den) && fits;
    }
    if (!fits || den == 0) {
      const std::string literal(text_.substr(start, pos_ - start));
      tok.kind = TokKind::kError;
      tok.text = !fits ? "numeric literal '" + literal +
                             "' does not fit in a 64-bit integer"
                       : "zero denominator in rational literal '" + literal +
                             "'";
      return tok;
    }
    tok.kind = TokKind::kNumber;
    tok.number = negative ? -Rational(num, den) : Rational(num, den);
    return tok;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

/// Recursive-descent parser over the token stream.
class RuleParser {
 public:
  explicit RuleParser(std::string_view text) : lexer_(text) {
    current_ = lexer_.Next();
  }

  bool AtEnd() const { return current_.kind == TokKind::kEnd; }

  bool ParseOneRule(ConjunctiveQuery* out) {
    Atom head;
    if (!ParseAtom(&head)) return false;
    if (!Expect(TokKind::kTurnstile, "':-'")) return false;
    std::vector<Atom> body;
    std::vector<Comparison> comparisons;
    for (;;) {
      if (!ParseLiteral(&body, &comparisons)) return false;
      if (current_.kind == TokKind::kComma) {
        Consume();
        continue;
      }
      break;
    }
    if (current_.kind == TokKind::kPeriod) Consume();
    *out = ConjunctiveQuery(std::move(head), std::move(body),
                            std::move(comparisons));
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  void Consume() { current_ = lexer_.Next(); }

  /// Records the first error at the current token.  A malformed token is
  /// reported as the lexer saw it, not as whatever the grammar expected.
  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = "parse error at line " + std::to_string(current_.line) +
               ", column " + std::to_string(current_.col) + ": " +
               (current_.kind == TokKind::kError ? current_.text : message);
    }
    return false;
  }

  bool Expect(TokKind kind, const std::string& what) {
    if (current_.kind != kind) {
      return Fail("expected " + what);
    }
    Consume();
    return true;
  }

  bool ParseTerm(Term* out) {
    switch (current_.kind) {
      case TokKind::kUpperIdent:
        *out = Term::Variable(current_.text);
        Consume();
        return true;
      case TokKind::kNumber:
        *out = Term::Constant(current_.number);
        Consume();
        return true;
      case TokKind::kLowerIdent:
        return Fail("'" + current_.text +
                    "': constants must be numeric (the comparison domain is "
                    "the rationals); variables start with an upper-case "
                    "letter");
      default:
        return Fail("expected a term (variable or numeric constant)");
    }
  }

  bool ParseAtom(Atom* out) {
    if (current_.kind != TokKind::kLowerIdent) {
      return Fail("expected a predicate name (lower-case identifier)");
    }
    const std::string predicate = current_.text;
    Consume();
    if (!Expect(TokKind::kLParen, "'('")) return false;
    std::vector<Term> args;
    if (current_.kind != TokKind::kRParen) {
      for (;;) {
        Term t;
        if (!ParseTerm(&t)) return false;
        args.push_back(std::move(t));
        if (current_.kind == TokKind::kComma) {
          Consume();
          continue;
        }
        break;
      }
    }
    if (!Expect(TokKind::kRParen, "')'")) return false;
    *out = Atom(predicate, std::move(args));
    return true;
  }

  static bool TokenToOp(TokKind kind, CompOp* out) {
    switch (kind) {
      case TokKind::kLt:
        *out = CompOp::kLt;
        return true;
      case TokKind::kLe:
        *out = CompOp::kLe;
        return true;
      case TokKind::kEq:
        *out = CompOp::kEq;
        return true;
      case TokKind::kNe:
        *out = CompOp::kNe;
        return true;
      case TokKind::kGe:
        *out = CompOp::kGe;
        return true;
      case TokKind::kGt:
        *out = CompOp::kGt;
        return true;
      default:
        return false;
    }
  }

  bool ParseLiteral(std::vector<Atom>* body,
                    std::vector<Comparison>* comparisons) {
    if (current_.kind == TokKind::kLowerIdent) {
      Atom a;
      if (!ParseAtom(&a)) return false;
      body->push_back(std::move(a));
      return true;
    }
    // Otherwise a comparison: term op term.
    Term lhs;
    if (!ParseTerm(&lhs)) return false;
    CompOp op;
    if (!TokenToOp(current_.kind, &op)) {
      return Fail("expected a comparison operator");
    }
    Consume();
    Term rhs;
    if (!ParseTerm(&rhs)) return false;
    comparisons->push_back(Comparison(std::move(lhs), op, std::move(rhs)));
    return true;
  }

  Lexer lexer_;
  Token current_;
  std::string error_;
};

}  // namespace

std::optional<ConjunctiveQuery> Parser::ParseRule(std::string_view text,
                                                  std::string* error) {
  RuleParser parser(text);
  ConjunctiveQuery q;
  if (!parser.ParseOneRule(&q)) {
    if (error != nullptr) *error = parser.error();
    return std::nullopt;
  }
  if (!parser.AtEnd()) {
    if (error != nullptr) *error = "trailing input after rule";
    return std::nullopt;
  }
  return q;
}

std::optional<std::vector<ConjunctiveQuery>> Parser::ParseProgram(
    std::string_view text, std::string* error) {
  RuleParser parser(text);
  std::vector<ConjunctiveQuery> rules;
  while (!parser.AtEnd()) {
    ConjunctiveQuery q;
    if (!parser.ParseOneRule(&q)) {
      if (error != nullptr) *error = parser.error();
      return std::nullopt;
    }
    rules.push_back(std::move(q));
  }
  return rules;
}

ConjunctiveQuery Parser::MustParseRule(std::string_view text) {
  std::string error;
  std::optional<ConjunctiveQuery> q = ParseRule(text, &error);
  if (!q.has_value()) {
    std::fprintf(stderr, "MustParseRule(\"%.*s\"): %s\n",
                 static_cast<int>(text.size()), text.data(), error.c_str());
    std::abort();
  }
  return *std::move(q);
}

std::vector<ConjunctiveQuery> Parser::MustParseProgram(std::string_view text) {
  std::string error;
  std::optional<std::vector<ConjunctiveQuery>> rules =
      ParseProgram(text, &error);
  if (!rules.has_value()) {
    std::fprintf(stderr, "MustParseProgram: %s\n", error.c_str());
    std::abort();
  }
  return *std::move(rules);
}

UnionQuery Parser::MustParseUnion(std::string_view text) {
  std::vector<ConjunctiveQuery> rules = MustParseProgram(text);
  if (rules.empty()) {
    std::fprintf(stderr, "MustParseUnion: empty program\n");
    std::abort();
  }
  for (const ConjunctiveQuery& q : rules) {
    if (q.head().predicate() != rules[0].head().predicate() ||
        q.head().arity() != rules[0].head().arity()) {
      std::fprintf(stderr,
                   "MustParseUnion: all rules must share one head predicate\n");
      std::abort();
    }
  }
  return UnionQuery(std::move(rules));
}

}  // namespace cqac
