(** The semantic task library behind both synthetic corpora.

    Each template is one {e semantic task} (what Java-med methods "are
    about"), carrying: the canonical method name and the synonym names other
    developers would use (names share key sub-tokens, as mined corpora do);
    one or more {e algorithm variants} implementing the task (COSET's
    classification target); and the MiniJava sources themselves.  The corpus
    generators expand these through {!Liger_lang.Mutate} into thousands of
    surface forms.

    All sources must parse, typecheck and be coverable by the test
    generator; [test_dataset.ml] enforces this for every variant. *)

type variant = {
  algo : string;     (* algorithm-class label, e.g. "bubble_sort" *)
  source : string;   (* MiniJava source; method name is canonical *)
}

type t = {
  base_name : string;
  synonyms : string list;  (* alternative names sharing key sub-tokens *)
  problem : string;        (* COSET problem grouping *)
  variants : variant list;
}

let t ~base_name ~synonyms ~problem variants = { base_name; synonyms; problem; variants }

let v algo source = { algo; source }

(* =================== array templates =================== *)

let sum_array =
  t ~base_name:"sumArray" ~synonyms:[ "computeSum"; "getArraySum"; "totalSum" ]
    ~problem:"array_sum"
    [
      v "sum_forward"
        {|
method sumArray(int[] a) : int {
  int total = 0;
  for (int i = 0; i < a.length; i++) {
    total += a[i];
  }
  return total;
}
|};
      v "sum_backward"
        {|
method sumArray(int[] a) : int {
  int total = 0;
  int i = a.length - 1;
  while (i >= 0) {
    total = total + a[i];
    i--;
  }
  return total;
}
|};
    ]

let find_max =
  t ~base_name:"findMax" ~synonyms:[ "getMax"; "maxElement"; "computeMax" ]
    ~problem:"array_max"
    [
      v "max_scan"
        {|
method findMax(int[] a) : int {
  if (a.length == 0) {
    return 0;
  }
  int best = a[0];
  for (int i = 1; i < a.length; i++) {
    if (a[i] > best) {
      best = a[i];
    }
  }
  return best;
}
|};
      v "max_builtin_fold"
        {|
method findMax(int[] a) : int {
  if (a.length == 0) {
    return 0;
  }
  int best = a[0];
  for (int i = 1; i < a.length; i++) {
    best = max(best, a[i]);
  }
  return best;
}
|};
    ]

let find_min =
  t ~base_name:"findMin" ~synonyms:[ "getMin"; "minElement"; "smallestValue" ]
    ~problem:"array_max"
    [
      v "min_scan"
        {|
method findMin(int[] a) : int {
  if (a.length == 0) {
    return 0;
  }
  int best = a[0];
  for (int i = 1; i < a.length; i++) {
    if (a[i] < best) {
      best = a[i];
    }
  }
  return best;
}
|};
    ]

let count_even =
  t ~base_name:"countEven" ~synonyms:[ "evenCount"; "numEvens"; "countEvenValues" ]
    ~problem:"array_count"
    [
      v "count_mod"
        {|
method countEven(int[] a) : int {
  int count = 0;
  for (int i = 0; i < a.length; i++) {
    if (a[i] % 2 == 0) {
      count++;
    }
  }
  return count;
}
|};
      v "count_subtract_odd"
        {|
method countEven(int[] a) : int {
  int count = a.length;
  for (int i = 0; i < a.length; i++) {
    if (a[i] % 2 != 0) {
      count = count - 1;
    }
  }
  return count;
}
|};
    ]

let count_positive =
  t ~base_name:"countPositive" ~synonyms:[ "positiveCount"; "numPositive" ]
    ~problem:"array_count"
    [
      v "count_pos_scan"
        {|
method countPositive(int[] a) : int {
  int count = 0;
  for (int i = 0; i < a.length; i++) {
    if (a[i] > 0) {
      count++;
    }
  }
  return count;
}
|};
    ]

let reverse_array =
  t ~base_name:"reverseArray" ~synonyms:[ "flipArray"; "reverseInPlace"; "invertArray" ]
    ~problem:"reverse"
    [
      v "reverse_two_pointer"
        {|
method reverseArray(int[] a) : int[] {
  int lo = 0;
  int hi = a.length - 1;
  while (lo < hi) {
    int tmp = a[lo];
    a[lo] = a[hi];
    a[hi] = tmp;
    lo++;
    hi--;
  }
  return a;
}
|};
      v "reverse_copy"
        {|
method reverseArray(int[] a) : int[] {
  int[] out = new int[a.length];
  for (int i = 0; i < a.length; i++) {
    out[a.length - 1 - i] = a[i];
  }
  return out;
}
|};
    ]

let sort_array =
  t ~base_name:"sortArray" ~synonyms:[ "sortAscending"; "orderValues"; "arraySort" ]
    ~problem:"sorting"
    [
      v "bubble_sort"
        {|
method sortArray(int[] a) : int[] {
  for (int i = a.length - 1; i > 0; i--) {
    for (int j = 0; j < i; j++) {
      if (a[j] > a[j + 1]) {
        int tmp = a[j];
        a[j] = a[j + 1];
        a[j + 1] = tmp;
      }
    }
  }
  return a;
}
|};
      v "insertion_sort"
        {|
method sortArray(int[] a) : int[] {
  for (int i = 1; i < a.length; i++) {
    int key = a[i];
    int j = i - 1;
    while (j >= 0 && a[j] > key) {
      a[j + 1] = a[j];
      j--;
    }
    a[j + 1] = key;
  }
  return a;
}
|};
      v "selection_sort"
        {|
method sortArray(int[] a) : int[] {
  for (int i = 0; i < a.length; i++) {
    int best = i;
    for (int j = i + 1; j < a.length; j++) {
      if (a[j] < a[best]) {
        best = j;
      }
    }
    int tmp = a[i];
    a[i] = a[best];
    a[best] = tmp;
  }
  return a;
}
|};
    ]

let contains_value =
  t ~base_name:"containsValue" ~synonyms:[ "hasValue"; "arrayContains"; "includesValue" ]
    ~problem:"search"
    [
      v "linear_search"
        {|
method containsValue(int[] a, int target) : bool {
  for (int i = 0; i < a.length; i++) {
    if (a[i] == target) {
      return true;
    }
  }
  return false;
}
|};
      v "flag_search"
        {|
method containsValue(int[] a, int target) : bool {
  bool found = false;
  for (int i = 0; i < a.length; i++) {
    if (a[i] == target) {
      found = true;
    }
  }
  return found;
}
|};
    ]

let index_of_value =
  t ~base_name:"indexOfValue" ~synonyms:[ "findIndex"; "positionOf"; "locateValue" ]
    ~problem:"search"
    [
      v "linear_index"
        {|
method indexOfValue(int[] a, int target) : int {
  for (int i = 0; i < a.length; i++) {
    if (a[i] == target) {
      return i;
    }
  }
  return 0 - 1;
}
|};
    ]

let count_occurrences =
  t ~base_name:"countOccurrences" ~synonyms:[ "occurrenceCount"; "countMatches"; "frequencyOf" ]
    ~problem:"array_count"
    [
      v "count_eq_scan"
        {|
method countOccurrences(int[] a, int target) : int {
  int count = 0;
  for (int i = 0; i < a.length; i++) {
    if (a[i] == target) {
      count++;
    }
  }
  return count;
}
|};
    ]

let is_sorted =
  t ~base_name:"isSorted" ~synonyms:[ "checkSorted"; "sortedAscending"; "isOrdered" ]
    ~problem:"sorting"
    [
      v "adjacent_check"
        {|
method isSorted(int[] a) : bool {
  for (int i = 0; i + 1 < a.length; i++) {
    if (a[i] > a[i + 1]) {
      return false;
    }
  }
  return true;
}
|};
      v "flag_check"
        {|
method isSorted(int[] a) : bool {
  bool ok = true;
  int i = 1;
  while (i < a.length) {
    if (a[i - 1] > a[i]) {
      ok = false;
    }
    i++;
  }
  return ok;
}
|};
    ]

let second_largest =
  t ~base_name:"secondLargest" ~synonyms:[ "secondMax"; "getSecondLargest" ]
    ~problem:"array_max"
    [
      v "two_pass"
        {|
method secondLargest(int[] a) : int {
  if (a.length < 2) {
    return 0;
  }
  int best = max(a[0], a[1]);
  int second = min(a[0], a[1]);
  for (int i = 2; i < a.length; i++) {
    if (a[i] > best) {
      second = best;
      best = a[i];
    } else if (a[i] > second) {
      second = a[i];
    }
  }
  return second;
}
|};
    ]

let range_of_array =
  t ~base_name:"rangeOfArray" ~synonyms:[ "valueRange"; "maxMinDiff"; "computeRange" ]
    ~problem:"array_max"
    [
      v "range_single_pass"
        {|
method rangeOfArray(int[] a) : int {
  if (a.length == 0) {
    return 0;
  }
  int hi = a[0];
  int lo = a[0];
  for (int i = 1; i < a.length; i++) {
    hi = max(hi, a[i]);
    lo = min(lo, a[i]);
  }
  return hi - lo;
}
|};
    ]

let dot_product =
  t ~base_name:"dotProduct" ~synonyms:[ "innerProduct"; "scalarProduct" ]
    ~problem:"array_sum"
    [
      v "dot_zip"
        {|
method dotProduct(int[] a, int[] b) : int {
  int total = 0;
  int n = min(a.length, b.length);
  for (int i = 0; i < n; i++) {
    total += a[i] * b[i];
  }
  return total;
}
|};
    ]

let sum_even =
  t ~base_name:"sumEven" ~synonyms:[ "evenSum"; "sumOfEvens" ]
    ~problem:"array_sum"
    [
      v "sum_even_guard"
        {|
method sumEven(int[] a) : int {
  int total = 0;
  for (int i = 0; i < a.length; i++) {
    if (a[i] % 2 == 0) {
      total += a[i];
    }
  }
  return total;
}
|};
    ]

let binary_search =
  t ~base_name:"binarySearch" ~synonyms:[ "bsearch"; "searchSorted"; "findSorted" ]
    ~problem:"search"
    [
      v "binary_search_iter"
        {|
method binarySearch(int[] a, int target) : int {
  int lo = 0;
  int hi = a.length - 1;
  while (lo <= hi) {
    int mid = (lo + hi) / 2;
    if (a[mid] == target) {
      return mid;
    }
    if (a[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return 0 - 1;
}
|};
    ]

let max_prefix_sum =
  t ~base_name:"maxPrefixSum" ~synonyms:[ "bestPrefixSum"; "maxRunningSum" ]
    ~problem:"array_sum"
    [
      v "prefix_scan"
        {|
method maxPrefixSum(int[] a) : int {
  int run = 0;
  int best = 0;
  for (int i = 0; i < a.length; i++) {
    run += a[i];
    if (run > best) {
      best = run;
    }
  }
  return best;
}
|};
    ]

(* =================== string templates =================== *)

let reverse_string =
  t ~base_name:"reverseString" ~synonyms:[ "flipString"; "stringReverse"; "reverseText" ]
    ~problem:"reverse"
    [
      v "build_backward"
        {|
method reverseString(string s) : string {
  string out = "";
  for (int i = s.length - 1; i >= 0; i--) {
    out = out + charAt(s, i);
  }
  return out;
}
|};
      v "prepend_forward"
        {|
method reverseString(string s) : string {
  string out = "";
  for (int i = 0; i < s.length; i++) {
    out = charAt(s, i) + out;
  }
  return out;
}
|};
    ]

let is_palindrome =
  t ~base_name:"isPalindrome" ~synonyms:[ "palindromeCheck"; "checkPalindrome" ]
    ~problem:"palindrome"
    [
      v "two_pointer"
        {|
method isPalindrome(string s) : bool {
  int lo = 0;
  int hi = s.length - 1;
  while (lo < hi) {
    if (charAt(s, lo) != charAt(s, hi)) {
      return false;
    }
    lo++;
    hi--;
  }
  return true;
}
|};
      v "reverse_compare"
        {|
method isPalindrome(string s) : bool {
  string rev = "";
  for (int i = s.length - 1; i >= 0; i--) {
    rev = rev + charAt(s, i);
  }
  return rev == s;
}
|};
    ]

let count_vowels =
  t ~base_name:"countVowels" ~synonyms:[ "vowelCount"; "numVowels" ]
    ~problem:"count_chars"
    [
      v "if_chain"
        {|
method countVowels(string s) : int {
  int count = 0;
  for (int i = 0; i < s.length; i++) {
    string c = charAt(s, i);
    if (c == "a" || c == "e" || c == "i" || c == "o" || c == "u") {
      count++;
    }
  }
  return count;
}
|};
      v "indexof_membership"
        {|
method countVowels(string s) : int {
  int count = 0;
  string vowels = "aeiou";
  for (int i = 0; i < s.length; i++) {
    if (indexOf(vowels, charAt(s, i)) >= 0) {
      count++;
    }
  }
  return count;
}
|};
    ]

let count_char =
  t ~base_name:"countChar" ~synonyms:[ "charCount"; "countLetter" ]
    ~problem:"count_chars"
    [
      v "char_eq_scan"
        {|
method countChar(string s, string c) : int {
  int count = 0;
  for (int i = 0; i < s.length; i++) {
    if (charAt(s, i) == c) {
      count++;
    }
  }
  return count;
}
|};
    ]

let is_string_rotation =
  t ~base_name:"isStringRotation" ~synonyms:[ "rotationCheck"; "isRotated" ]
    ~problem:"palindrome"
    [
      v "split_concat"
        {|
method isStringRotation(string a, string b) : bool {
  if (a.length != b.length) {
    return false;
  }
  if (a == b) {
    return true;
  }
  for (int i = 1; i < a.length; i++) {
    string tail = substring(a, i, a.length - i);
    string wrap = substring(a, 0, i);
    if (tail + wrap == b) {
      return true;
    }
  }
  return false;
}
|};
    ]

let starts_with =
  t ~base_name:"startsWith" ~synonyms:[ "stringStartsWith"; "checkStartsWith"; "hasPrefix" ]
    ~problem:"search"
    [
      v "prefix_scan"
        {|
method startsWith(string s, string prefix) : bool {
  if (prefix.length > s.length) {
    return false;
  }
  for (int i = 0; i < prefix.length; i++) {
    if (charAt(s, i) != charAt(prefix, i)) {
      return false;
    }
  }
  return true;
}
|};
    ]

let to_upper_count =
  t ~base_name:"countUpper" ~synonyms:[ "upperCount"; "numCapitals" ]
    ~problem:"count_chars"
    [
      v "ord_range"
        {|
method countUpper(string s) : int {
  int count = 0;
  for (int i = 0; i < s.length; i++) {
    int code = ord(charAt(s, i));
    if (code >= 65 && code <= 90) {
      count++;
    }
  }
  return count;
}
|};
    ]

(* =================== integer templates =================== *)

let gcd =
  t ~base_name:"computeGcd" ~synonyms:[ "greatestCommonDivisor"; "gcdOf"; "findGcd" ]
    ~problem:"gcd"
    [
      v "gcd_mod"
        {|
method computeGcd(int a, int b) : int {
  a = abs(a);
  b = abs(b);
  while (b != 0) {
    int r = a % b;
    a = b;
    b = r;
  }
  return a;
}
|};
      v "gcd_subtract"
        {|
method computeGcd(int a, int b) : int {
  a = abs(a);
  b = abs(b);
  if (a == 0) {
    return b;
  }
  if (b == 0) {
    return a;
  }
  while (a != b) {
    if (a > b) {
      a = a - b;
    } else {
      b = b - a;
    }
  }
  return a;
}
|};
    ]

let is_prime =
  t ~base_name:"isPrime" ~synonyms:[ "primeCheck"; "checkPrime" ]
    ~problem:"prime"
    [
      v "trial_to_n"
        {|
method isPrime(int n) : bool {
  if (n < 2) {
    return false;
  }
  for (int i = 2; i < n; i++) {
    if (n % i == 0) {
      return false;
    }
  }
  return true;
}
|};
      v "trial_to_sqrt"
        {|
method isPrime(int n) : bool {
  if (n < 2) {
    return false;
  }
  for (int i = 2; i * i <= n; i++) {
    if (n % i == 0) {
      return false;
    }
  }
  return true;
}
|};
    ]

let fibonacci =
  t ~base_name:"fibonacci" ~synonyms:[ "fibonacciNumber"; "nthFibonacci"; "computeFib" ]
    ~problem:"fibonacci"
    [
      v "fib_pair"
        {|
method fibonacci(int n) : int {
  if (n < 0) {
    return 0;
  }
  int a = 0;
  int b = 1;
  for (int i = 0; i < n; i++) {
    int next = a + b;
    a = b;
    b = next;
  }
  return a;
}
|};
      v "fib_array"
        {|
method fibonacci(int n) : int {
  if (n < 0) {
    return 0;
  }
  if (n < 2) {
    return n;
  }
  int[] dp = new int[n + 1];
  dp[1] = 1;
  for (int i = 2; i <= n; i++) {
    dp[i] = dp[i - 1] + dp[i - 2];
  }
  return dp[n];
}
|};
    ]

let factorial =
  t ~base_name:"factorial" ~synonyms:[ "computeFactorial"; "factOf" ]
    ~problem:"fibonacci"
    [
      v "fact_loop"
        {|
method factorial(int n) : int {
  int result = 1;
  for (int i = 2; i <= n; i++) {
    result = result * i;
  }
  return result;
}
|};
    ]

let sum_digits =
  t ~base_name:"sumDigits" ~synonyms:[ "digitSum"; "addDigits" ]
    ~problem:"digits"
    [
      v "mod_div_loop"
        {|
method sumDigits(int n) : int {
  n = abs(n);
  int total = 0;
  while (n > 0) {
    total += n % 10;
    n = n / 10;
  }
  return total;
}
|};
      v "string_digits"
        {|
method sumDigits(int n) : int {
  string s = toString(abs(n));
  int total = 0;
  for (int i = 0; i < s.length; i++) {
    total += ord(charAt(s, i)) - 48;
  }
  return total;
}
|};
    ]

let reverse_digits =
  t ~base_name:"reverseDigits" ~synonyms:[ "reverseNumber"; "flipDigits" ]
    ~problem:"digits"
    [
      v "digits_mod_loop"
        {|
method reverseDigits(int n) : int {
  n = abs(n);
  int out = 0;
  while (n > 0) {
    out = out * 10 + n % 10;
    n = n / 10;
  }
  return out;
}
|};
    ]

let count_divisors =
  t ~base_name:"countDivisors" ~synonyms:[ "divisorCount"; "numDivisors" ]
    ~problem:"prime"
    [
      v "divisor_scan"
        {|
method countDivisors(int n) : int {
  n = abs(n);
  if (n == 0) {
    return 0;
  }
  int count = 0;
  for (int i = 1; i <= n; i++) {
    if (n % i == 0) {
      count++;
    }
  }
  return count;
}
|};
    ]

let collatz_steps =
  t ~base_name:"collatzSteps" ~synonyms:[ "collatzLength"; "hailstoneSteps" ]
    ~problem:"digits"
    [
      v "collatz_loop"
        {|
method collatzSteps(int n) : int {
  if (n < 1) {
    return 0;
  }
  int steps = 0;
  while (n != 1 && steps < 100) {
    if (n % 2 == 0) {
      n = n / 2;
    } else {
      n = 3 * n + 1;
    }
    steps++;
  }
  return steps;
}
|};
    ]

let max_of_three =
  t ~base_name:"maxOfThree" ~synonyms:[ "largestOfThree"; "threeWayMax" ]
    ~problem:"array_max"
    [
      v "nested_if"
        {|
method maxOfThree(int a, int b, int c) : int {
  if (a >= b) {
    if (a >= c) {
      return a;
    }
    return c;
  }
  if (b >= c) {
    return b;
  }
  return c;
}
|};
      v "builtin_chain"
        {|
method maxOfThree(int a, int b, int c) : int {
  int hi = max(a, b);
  hi = max(hi, c);
  return hi;
}
|};
    ]

let clamp_value =
  t ~base_name:"clampValue" ~synonyms:[ "clampRange"; "boundValue" ]
    ~problem:"array_max"
    [
      v "clamp_ifs"
        {|
method clampValue(int x, int lo, int hi) : int {
  if (x < lo) {
    return lo;
  }
  if (x > hi) {
    return hi;
  }
  return x;
}
|};
    ]

let int_power =
  t ~base_name:"intPower" ~synonyms:[ "raisePower"; "powerOf" ]
    ~problem:"fibonacci"
    [
      v "multiply_loop"
        {|
method intPower(int base, int exp) : int {
  if (exp < 0) {
    return 0;
  }
  int result = 1;
  for (int i = 0; i < exp; i++) {
    result = result * base;
  }
  return result;
}
|};
    ]

let sum_range =
  t ~base_name:"sumRange" ~synonyms:[ "rangeSum"; "sumBetween" ]
    ~problem:"array_sum"
    [
      v "range_loop"
        {|
method sumRange(int lo, int hi) : int {
  int total = 0;
  for (int i = lo; i <= hi; i++) {
    total += i;
  }
  return total;
}
|};
    ]

let is_perfect_square =
  t ~base_name:"isPerfectSquare" ~synonyms:[ "perfectSquareCheck"; "isSquare" ]
    ~problem:"prime"
    [
      v "incremental_square"
        {|
method isPerfectSquare(int n) : bool {
  if (n < 0) {
    return false;
  }
  int i = 0;
  while (i * i < n) {
    i++;
  }
  return i * i == n;
}
|};
    ]

let digit_count =
  t ~base_name:"digitCount" ~synonyms:[ "numDigits"; "countDigits" ]
    ~problem:"digits"
    [
      v "div_loop"
        {|
method digitCount(int n) : int {
  n = abs(n);
  int count = 1;
  while (n >= 10) {
    n = n / 10;
    count++;
  }
  return count;
}
|};
      v "string_length"
        {|
method digitCount(int n) : int {
  if (n == 0) {
    return 1;
  }
  string s = toString(abs(n));
  return s.length;
}
|};
    ]

(* =================== additional array templates =================== *)

let sum_of_squares =
  t ~base_name:"sumOfSquares" ~synonyms:[ "squaredSum"; "sumSquares" ]
    ~problem:"array_sum"
    [
      v "square_accumulate"
        {|
method sumOfSquares(int[] a) : int {
  int total = 0;
  for (int i = 0; i < a.length; i++) {
    total += a[i] * a[i];
  }
  return total;
}
|};
    ]

let alternating_sum =
  t ~base_name:"alternatingSum" ~synonyms:[ "signedSum"; "alternateSum" ]
    ~problem:"array_sum"
    [
      v "sign_flip"
        {|
method alternatingSum(int[] a) : int {
  int total = 0;
  int sign = 1;
  for (int i = 0; i < a.length; i++) {
    total += sign * a[i];
    sign = 0 - sign;
  }
  return total;
}
|};
      v "parity_branch"
        {|
method alternatingSum(int[] a) : int {
  int total = 0;
  for (int i = 0; i < a.length; i++) {
    if (i % 2 == 0) {
      total += a[i];
    } else {
      total -= a[i];
    }
  }
  return total;
}
|};
    ]

let longest_run =
  t ~base_name:"longestRun" ~synonyms:[ "maxRunLength"; "longestStreak" ]
    ~problem:"array_count"
    [
      v "run_scan"
        {|
method longestRun(int[] a) : int {
  if (a.length == 0) {
    return 0;
  }
  int best = 1;
  int run = 1;
  for (int i = 1; i < a.length; i++) {
    if (a[i] == a[i - 1]) {
      run++;
    } else {
      run = 1;
    }
    best = max(best, run);
  }
  return best;
}
|};
    ]

let count_peaks =
  t ~base_name:"countPeaks" ~synonyms:[ "peakCount"; "localMaxima" ]
    ~problem:"array_count"
    [
      v "neighbor_compare"
        {|
method countPeaks(int[] a) : int {
  int count = 0;
  for (int i = 1; i + 1 < a.length; i++) {
    if (a[i] > a[i - 1] && a[i] > a[i + 1]) {
      count++;
    }
  }
  return count;
}
|};
    ]

let is_arithmetic =
  t ~base_name:"isArithmetic" ~synonyms:[ "arithmeticCheck"; "isArithmeticSequence" ]
    ~problem:"sorting"
    [
      v "diff_check"
        {|
method isArithmetic(int[] a) : bool {
  if (a.length < 2) {
    return true;
  }
  int diff = a[1] - a[0];
  for (int i = 2; i < a.length; i++) {
    if (a[i] - a[i - 1] != diff) {
      return false;
    }
  }
  return true;
}
|};
    ]

let rotate_left =
  t ~base_name:"rotateLeft" ~synonyms:[ "leftRotate"; "cycleLeft" ]
    ~problem:"reverse"
    [
      v "shift_with_temp"
        {|
method rotateLeft(int[] a) : int[] {
  if (a.length < 2) {
    return a;
  }
  int first = a[0];
  for (int i = 0; i + 1 < a.length; i++) {
    a[i] = a[i + 1];
  }
  a[a.length - 1] = first;
  return a;
}
|};
      v "rebuild_copy"
        {|
method rotateLeft(int[] a) : int[] {
  if (a.length < 2) {
    return a;
  }
  int[] out = new int[a.length];
  for (int i = 0; i < a.length; i++) {
    out[i] = a[(i + 1) % a.length];
  }
  return out;
}
|};
    ]

let count_distinct_sorted =
  t ~base_name:"countDistinct" ~synonyms:[ "distinctCount"; "uniqueValues" ]
    ~problem:"array_count"
    [
      v "nested_first_occurrence"
        {|
method countDistinct(int[] a) : int {
  int count = 0;
  for (int i = 0; i < a.length; i++) {
    bool seen = false;
    for (int j = 0; j < i; j++) {
      if (a[j] == a[i]) {
        seen = true;
      }
    }
    if (!seen) {
      count++;
    }
  }
  return count;
}
|};
    ]

let swap_min_max =
  t ~base_name:"swapMinMax" ~synonyms:[ "exchangeMinMax"; "swapExtremes" ]
    ~problem:"array_max"
    [
      v "two_scans"
        {|
method swapMinMax(int[] a) : int[] {
  if (a.length < 2) {
    return a;
  }
  int lo = 0;
  int hi = 0;
  for (int i = 1; i < a.length; i++) {
    if (a[i] < a[lo]) {
      lo = i;
    }
    if (a[i] > a[hi]) {
      hi = i;
    }
  }
  int tmp = a[lo];
  a[lo] = a[hi];
  a[hi] = tmp;
  return a;
}
|};
    ]

(* =================== additional string templates =================== *)

let caesar_shift =
  t ~base_name:"caesarShift" ~synonyms:[ "shiftCipher"; "caesarEncode" ]
    ~problem:"count_chars"
    [
      v "ord_chr_loop"
        {|
method caesarShift(string s, int k) : string {
  string out = "";
  int shift = k % 26;
  if (shift < 0) {
    shift = shift + 26;
  }
  for (int i = 0; i < s.length; i++) {
    int code = ord(charAt(s, i));
    if (code >= 97 && code <= 122) {
      out = out + chr(97 + (code - 97 + shift) % 26);
    } else {
      out = out + charAt(s, i);
    }
  }
  return out;
}
|};
    ]

let count_words =
  t ~base_name:"countWords" ~synonyms:[ "wordCount"; "numWords" ]
    ~problem:"count_chars"
    [
      v "boundary_scan"
        {|
method countWords(string s) : int {
  int count = 0;
  bool inword = false;
  for (int i = 0; i < s.length; i++) {
    if (charAt(s, i) == " ") {
      inword = false;
    } else {
      if (!inword) {
        count++;
      }
      inword = true;
    }
  }
  return count;
}
|};
    ]

let ends_with =
  t ~base_name:"endsWith" ~synonyms:[ "stringEndsWith"; "hasSuffix"; "suffixMatch" ]
    ~problem:"search"
    [
      v "suffix_scan"
        {|
method endsWith(string s, string suffix) : bool {
  if (suffix.length > s.length) {
    return false;
  }
  int offset = s.length - suffix.length;
  for (int i = 0; i < suffix.length; i++) {
    if (charAt(s, offset + i) != charAt(suffix, i)) {
      return false;
    }
  }
  return true;
}
|};
    ]

let max_char_code =
  t ~base_name:"maxCharCode" ~synonyms:[ "largestCharCode"; "maxOrd" ]
    ~problem:"array_max"
    [
      v "ord_scan"
        {|
method maxCharCode(string s) : int {
  int best = 0;
  for (int i = 0; i < s.length; i++) {
    best = max(best, ord(charAt(s, i)));
  }
  return best;
}
|};
    ]

(* =================== additional integer templates =================== *)

let max_digit =
  t ~base_name:"maxDigit" ~synonyms:[ "largestDigit"; "biggestDigit" ]
    ~problem:"digits"
    [
      v "mod_scan"
        {|
method maxDigit(int n) : int {
  n = abs(n);
  int best = 0;
  while (n > 0) {
    best = max(best, n % 10);
    n = n / 10;
  }
  return best;
}
|};
      v "string_scan"
        {|
method maxDigit(int n) : int {
  string s = toString(abs(n));
  int best = 0;
  for (int i = 0; i < s.length; i++) {
    best = max(best, ord(charAt(s, i)) - 48);
  }
  return best;
}
|};
    ]

let triangle_number =
  t ~base_name:"triangleNumber" ~synonyms:[ "triangularNumber"; "nthTriangle" ]
    ~problem:"fibonacci"
    [
      v "accumulate"
        {|
method triangleNumber(int n) : int {
  int total = 0;
  for (int i = 1; i <= n; i++) {
    total += i;
  }
  return total;
}
|};
      v "closed_form"
        {|
method triangleNumber(int n) : int {
  if (n < 1) {
    return 0;
  }
  return n * (n + 1) / 2;
}
|};
    ]

let is_power_of_two =
  t ~base_name:"isPowerOfTwo" ~synonyms:[ "powerOfTwoCheck"; "isPow2" ]
    ~problem:"prime"
    [
      v "divide_down"
        {|
method isPowerOfTwo(int n) : bool {
  if (n < 1) {
    return false;
  }
  while (n % 2 == 0) {
    n = n / 2;
  }
  return n == 1;
}
|};
      v "grow_up"
        {|
method isPowerOfTwo(int n) : bool {
  if (n < 1) {
    return false;
  }
  int p = 1;
  while (p < n) {
    p = p * 2;
  }
  return p == n;
}
|};
    ]

let digital_root =
  t ~base_name:"digitalRoot" ~synonyms:[ "repeatedDigitSum"; "rootDigit" ]
    ~problem:"digits"
    [
      v "iterate_sums"
        {|
method digitalRoot(int n) : int {
  n = abs(n);
  while (n >= 10) {
    int total = 0;
    int m = n;
    while (m > 0) {
      total += m % 10;
      m = m / 10;
    }
    n = total;
  }
  return n;
}
|};
    ]

(* =================== object templates =================== *)

let manhattan_distance =
  t ~base_name:"manhattanDistance" ~synonyms:[ "taxicabDistance"; "l1Distance" ]
    ~problem:"geometry"
    [
      v "abs_sum"
        {|
method manhattanDistance(obj p, obj q) : int {
  int dx = abs(p.x - q.x);
  int dy = abs(p.y - q.y);
  return dx + dy;
}
|};
    ]

let point_quadrant =
  t ~base_name:"pointQuadrant" ~synonyms:[ "quadrantOf"; "whichQuadrant" ]
    ~problem:"geometry"
    [
      v "sign_cases"
        {|
method pointQuadrant(obj p) : int {
  if (p.x > 0 && p.y > 0) {
    return 1;
  }
  if (p.x < 0 && p.y > 0) {
    return 2;
  }
  if (p.x < 0 && p.y < 0) {
    return 3;
  }
  if (p.x > 0 && p.y < 0) {
    return 4;
  }
  return 0;
}
|};
    ]

let distance_squared =
  t ~base_name:"distanceSquared" ~synonyms:[ "squaredDistance"; "dist2" ]
    ~problem:"geometry"
    [
      v "diff_squares"
        {|
method distanceSquared(obj p, obj q) : int {
  int dx = p.x - q.x;
  int dy = p.y - q.y;
  return dx * dx + dy * dy;
}
|};
    ]

(** Every template, the generator's sampling space. *)
let all : t list =
  [
    sum_array; find_max; find_min; count_even; count_positive; reverse_array;
    sort_array; contains_value; index_of_value; count_occurrences; is_sorted;
    second_largest; range_of_array; dot_product; sum_even; binary_search;
    max_prefix_sum; reverse_string; is_palindrome; count_vowels; count_char;
    is_string_rotation; starts_with; to_upper_count; gcd; is_prime; fibonacci;
    factorial; sum_digits; reverse_digits; count_divisors; collatz_steps;
    max_of_three; clamp_value; int_power; sum_range; is_perfect_square;
    digit_count; sum_of_squares; alternating_sum; longest_run; count_peaks;
    is_arithmetic; rotate_left; count_distinct_sorted; swap_min_max;
    caesar_shift; count_words; ends_with; max_char_code; max_digit;
    triangle_number; is_power_of_two; digital_root; manhattan_distance;
    point_quadrant; distance_squared;
  ]

(** The ten COSET problems: templates grouped by [problem]; each problem's
    algorithm classes are its variants' [algo] labels. *)
let coset_problems =
  [ "sorting"; "array_max"; "reverse"; "fibonacci"; "gcd"; "prime";
    "count_chars"; "palindrome"; "digits"; "search" ]

let by_problem problem = List.filter (fun t -> t.problem = problem) all
